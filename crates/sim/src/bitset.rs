//! A packed fixed-size bit set over `u64` words.
//!
//! The engine's per-round set state — who is switched on now, who was on in
//! the previous round — is dense, small, and rewritten every round. As a
//! `Vec<bool>` that costs O(n) byte writes to clear and O(n) byte copies to
//! snapshot; packed into words, clearing is O(n/64) word fills, membership
//! is one shift-and-mask, and the end-of-round snapshot is a word copy.
//! Word access is public so periodic schedule caches
//! ([`crate::schedule::ScheduleTable`]) can blit whole precomputed rows.

/// A fixed-capacity set of station names `0..len`, packed 64 per word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

/// Number of `u64` words needed to hold `len` bits.
pub const fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// Set bit `i` in a packed row of `u64` words. The single source of truth
/// for the word/bit layout shared by [`BitSet`], schedule-table rows, and
/// subset masks — external packed rows stay blit-compatible with
/// [`BitSet::copy_from_words`] by construction.
#[inline]
pub fn row_set(row: &mut [u64], i: usize) {
    row[i >> 6] |= 1u64 << (i & 63);
}

/// Whether bit `i` is set in a packed row of `u64` words.
#[inline]
pub fn row_get(row: &[u64], i: usize) -> bool {
    row[i >> 6] & (1u64 << (i & 63)) != 0
}

impl BitSet {
    /// An empty set with capacity for members `0..len`.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; words_for(len)], len }
    }

    /// Build from a slice of booleans (index `i` is a member iff
    /// `bools[i]`). Convenience for tests and adversary fixtures.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut set = Self::new(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                set.insert(i);
            }
        }
        set
    }

    /// Capacity in bits (the system size `n`, not the member count — see
    /// [`BitSet::count`] for that, deliberately not named `len`/`is_empty`).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Whether `i` is a member. `i` must be below the capacity.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range for BitSet of capacity {}", self.len);
        row_get(&self.words, i)
    }

    /// Insert `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range for BitSet of capacity {}", self.len);
        row_set(&mut self.words, i);
    }

    /// Remove `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range for BitSet of capacity {}", self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Remove every member: O(n/64) word fills.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word-copy another set of the same capacity into this one.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        self.copy_from_words(&other.words);
    }

    /// Overwrite the backing words from a packed row (e.g. one round of a
    /// precomputed schedule table). The row must have exactly
    /// `words_for(len)` words; bits at or above `len` must be zero. A set
    /// of one or two words (`n ≤ 128`, every committed scale) is copied by
    /// plain stores rather than a `memcpy` call.
    #[inline]
    pub fn copy_from_words(&mut self, row: &[u64]) {
        match (self.words.as_mut_slice(), row) {
            ([word], [src]) => *word = *src,
            ([w0, w1], [s0, s1]) => (*w0, *w1) = (*s0, *s1),
            (words, row) => words.copy_from_slice(row),
        }
    }

    /// The backing words, least-significant station first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate the members in ascending order, word-wise: cost is
    /// O(n/64 + members), not O(n).
    pub fn iter(&self) -> Ones<'_> {
        Ones { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }
}

/// Ascending iterator over the members of a [`BitSet`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.word_idx << 6) | bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_capacity() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let s = BitSet::new(n);
            assert_eq!(s.capacity(), n);
            assert_eq!(s.words().len(), n.div_ceil(64));
            assert_eq!(s.count(), 0);
            assert_eq!(s.iter().count(), 0);
        }
    }

    #[test]
    fn set_clear_iterate_across_word_boundaries() {
        // The word boundary cases the engine will live on: n = 63 (one
        // partial word), 64 (exactly one word), 65 (straddles two words).
        for n in [63usize, 64, 65] {
            let mut s = BitSet::new(n);
            let members: Vec<usize> =
                [0, 1, 31, 62, 63, 64].iter().copied().filter(|&i| i < n).collect();
            for &i in &members {
                s.insert(i);
                assert!(s.contains(i), "n={n}, bit {i}");
            }
            assert_eq!(s.count(), members.len(), "n={n}");
            assert_eq!(s.iter().collect::<Vec<_>>(), members, "n={n}: ascending iteration");
            // double-insert is idempotent
            for &i in &members {
                s.insert(i);
            }
            assert_eq!(s.count(), members.len(), "n={n}: insert is idempotent");
            // removal, including the highest valid bit
            s.remove(members[members.len() - 1]);
            assert!(!s.contains(members[members.len() - 1]));
            assert_eq!(s.count(), members.len() - 1);
            s.clear();
            assert_eq!(s.count(), 0, "n={n}");
            assert!(s.words().iter().all(|&w| w == 0), "n={n}: clear zeroes whole words");
        }
    }

    #[test]
    fn word_copy_round_trips() {
        let mut a = BitSet::new(65);
        a.insert(0);
        a.insert(63);
        a.insert(64);
        let mut b = BitSet::new(65);
        b.copy_from(&a);
        assert_eq!(a, b);
        let mut c = BitSet::new(65);
        c.copy_from_words(a.words());
        assert_eq!(a, c);
        // one, two and three words: the store paths and the slice copy
        for n in [64usize, 128, 129] {
            let mut src = BitSet::new(n);
            for i in [0, n / 2, n - 1] {
                src.insert(i);
            }
            let mut dst = BitSet::new(n);
            dst.insert(1);
            dst.copy_from(&src);
            assert_eq!(dst, src, "n={n}");
        }
        // copying an empty set over a full one clears it
        let empty = BitSet::new(65);
        b.copy_from(&empty);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn packed_row_helpers_match_bitset_layout() {
        let mut row = vec![0u64; words_for(70)];
        for i in [0usize, 63, 64, 69] {
            assert!(!row_get(&row, i));
            row_set(&mut row, i);
            assert!(row_get(&row, i));
        }
        let mut s = BitSet::new(70);
        s.copy_from_words(&row);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 69]);
    }

    #[test]
    fn from_bools_matches_indices() {
        let bools = [true, false, false, true, true];
        let s = BitSet::from_bools(&bools);
        assert_eq!(s.capacity(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(s.contains(i), b);
        }
    }

    #[test]
    fn iteration_is_sparse_friendly() {
        // a single high bit in a large set is found without visiting
        // every index
        let mut s = BitSet::new(1024);
        s.insert(1000);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1000]);
        assert_eq!(s.count(), 1);
    }
}
