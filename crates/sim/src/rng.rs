//! A small, dependency-free deterministic PRNG.
//!
//! The repository runs in hermetic environments without crates.io access,
//! so the few places that need randomness (uniform traffic patterns,
//! sampled property tests) share this generator instead of the `rand`
//! crate: xoshiro256++ (Blackman–Vigna) seeded through SplitMix64. It is
//! not cryptographic; it is fast, well distributed, and — the property the
//! experiments actually rely on — exactly reproducible from a `u64` seed
//! on every platform.

/// SplitMix64 step: the recommended seeding sequence for xoshiro.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator.
///
/// The name mirrors `rand::rngs::SmallRng`, which this type replaces in
/// API shape (`seed_from_u64`, `random_range`) so call sites read the same.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// A generator whose entire stream is a function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[range.start, range.end)`. Panics on an empty
    /// range. Uses Lemire-style rejection for unbiased results.
    #[inline]
    pub fn random_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.random_below(span) as usize)
    }

    /// Uniform draw from `[range.start, range.end)` over `u64`.
    #[inline]
    pub fn random_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.random_below(range.end - range.start)
    }

    /// Fair coin.
    #[inline]
    pub fn random_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform in `[0, bound)`, unbiased.
    #[inline]
    fn random_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // rejection sampling over the top of the range to remove modulo bias
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn range_draws_stay_in_range_and_cover() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.random_range(2..7);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range appear");
        for _ in 0..100 {
            assert_eq!(r.random_range(3..4), 3, "singleton range");
        }
    }

    #[test]
    fn u64_range_and_bool() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.random_range_u64(10..1_000);
            assert!((10..1_000).contains(&v));
        }
        let heads = (0..1000).filter(|_| r.random_bool()).count();
        assert!((300..700).contains(&heads), "coin is not pathologically biased: {heads}");
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.random_range(0..8)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from 1000");
        }
    }
}
