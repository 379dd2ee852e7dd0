//! Window geometry for `Adjust-Window` (paper §4.2).
//!
//! A window of size `L` splits into a Gossip stage of `L_G = n²(2 + 3·lgL)`
//! rounds, a Main stage, and an Auxiliary stage of `L_A = 8n³·lgL` rounds,
//! with `lg x = ⌈log₂(x+1)⌉`. The initial `L` is the smallest natural
//! number whose Main stage occupies at least half the window — computed
//! exactly rather than with the paper's "sufficiently large n" closed form
//! (`tests::initial_size_satisfies_half_condition`).

use emac_sim::{Rate, Round};

use crate::bounds::lg;

/// Fixed geometry of one window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowCfg {
    /// First round of the window.
    pub w0: Round,
    /// Window length `L`.
    pub l: u64,
    /// `lg L`.
    pub g: u64,
    /// Gossip stage length `L_G`.
    pub lg_len: u64,
    /// Main stage length `L_M = L − L_G − L_A`.
    pub lm_len: u64,
    /// Auxiliary stage length `L_A`.
    pub la_len: u64,
}

/// `L_G + L_A` for a window of size `l` on `n` stations.
fn overhead(n: u64, l: u64) -> u64 {
    let g = lg(l);
    n * n * (2 + 3 * g) + 8 * n * n * n * g
}

/// The smallest `L` with `L − L_G − L_A ≥ L/2`, i.e. `L ≥ 2(L_G + L_A)`.
///
/// `lg L` is constant on each segment `[2^j, 2^{j+1})`, so the condition is
/// checked segment by segment.
pub fn initial_window_size(n: usize) -> u64 {
    let n = n as u64;
    for j in 0..63 {
        let lo = 1u64 << j;
        let hi = (1u64 << (j + 1)) - 1;
        let need = 2 * overhead(n, lo); // lg is constant on [lo, hi]
        debug_assert_eq!(lg(lo), lg(hi));
        let candidate = need.max(lo);
        if candidate <= hi {
            return candidate;
        }
    }
    unreachable!("initial window size exists for any feasible n")
}

/// The steady-state window size against a `(ρ, β)` adversary: the smallest
/// power-of-two multiple of the initial window whose Main stage can carry
/// everything injected during one window (`L_M ≥ ρL + β`). Once a window of
/// this size is reached, doubling stops and every packet waits at most two
/// windows, so `2·L*` bounds the latency of *this implementation* exactly
/// (the paper's `(18n³log²n + 2β)/(1−ρ)` is the same quantity evaluated
/// asymptotically, where `lg L = Θ(log n)`; at small `n`, `lg L` is a
/// sizeable constant instead — Table 1 row 4 reports both ratios).
pub fn steady_window_size(n: usize, rho: Rate, beta: u64) -> u64 {
    let mut cfg = WindowCfg::first(n);
    loop {
        // L_M ≥ ρ·L + β, in exact rational arithmetic.
        let lhs = cfg.lm_len as u128 * rho.den() as u128;
        let rhs = rho.num() as u128 * cfg.l as u128 + beta as u128 * rho.den() as u128;
        if lhs >= rhs {
            return cfg.l;
        }
        cfg = cfg.next(n, true);
    }
}

/// Latency bound of this implementation: `2·L*` (see
/// [`steady_window_size`]).
pub fn impl_latency_bound(n: usize, rho: Rate, beta: u64) -> u64 {
    2 * steady_window_size(n, rho, beta)
}

impl WindowCfg {
    /// Geometry of a window starting at `w0` with size `l`.
    pub fn new(n: usize, w0: Round, l: u64) -> Self {
        let n64 = n as u64;
        let g = lg(l);
        let lg_len = n64 * n64 * (2 + 3 * g);
        let la_len = 8 * n64 * n64 * n64 * g;
        assert!(
            l >= lg_len + la_len,
            "window too small: L = {l} < L_G + L_A = {}",
            lg_len + la_len
        );
        let lm_len = l - lg_len - la_len;
        Self { w0, l, g, lg_len, lm_len, la_len }
    }

    /// The first window for a system of `n` stations.
    pub fn first(n: usize) -> Self {
        Self::new(n, 0, initial_window_size(n))
    }

    /// The window following this one (doubled or not).
    pub fn next(&self, n: usize, double: bool) -> Self {
        let l = if double { self.l * 2 } else { self.l };
        Self::new(n, self.w0 + self.l, l)
    }

    /// One past the last round of the window.
    pub fn end(&self) -> Round {
        self.w0 + self.l
    }

    /// Length of one gossip phase `(i, j)`.
    pub fn phase_len(&self) -> u64 {
        2 + 3 * self.g
    }

    /// First round of the Main stage.
    pub fn main_start(&self) -> Round {
        self.w0 + self.lg_len
    }

    /// First round of the Auxiliary stage.
    pub fn aux_start(&self) -> Round {
        self.w0 + self.lg_len + self.lm_len
    }

    /// The *small* threshold `4n·lgL`: stations whose queue at the window
    /// start is below it do not participate in Gossip or Main.
    pub fn small_threshold(&self, n: usize) -> u64 {
        4 * n as u64 * self.g
    }

    /// Number of auxiliary phases `8n·lgL`.
    pub fn aux_phases(&self, n: usize) -> u64 {
        8 * n as u64 * self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_size_satisfies_half_condition() {
        for n in [2usize, 3, 4, 6, 8] {
            let l = initial_window_size(n);
            let cfg = WindowCfg::new(n, 0, l);
            assert!(cfg.lm_len * 2 >= cfg.l, "n={n}: main {} of {}", cfg.lm_len, cfg.l);
            // minimality: l-1 fails (either the condition or segment bounds)
            if l > 1 {
                let d = overhead(n as u64, l - 1);
                assert!(l - 1 < 2 * d, "n={n}: {} not minimal", l);
            }
        }
    }

    #[test]
    fn stage_lengths_partition_the_window() {
        let cfg = WindowCfg::first(4);
        assert_eq!(cfg.lg_len + cfg.lm_len + cfg.la_len, cfg.l);
        assert_eq!(cfg.main_start(), cfg.w0 + cfg.lg_len);
        assert_eq!(cfg.aux_start(), cfg.main_start() + cfg.lm_len);
        assert_eq!(cfg.end(), cfg.aux_start() + cfg.la_len);
        // aux stage is phases of n² rounds
        assert_eq!(cfg.la_len, cfg.aux_phases(4) * 16);
    }

    #[test]
    fn doubling_preserves_the_half_condition() {
        let mut cfg = WindowCfg::first(3);
        for _ in 0..8 {
            cfg = cfg.next(3, true);
            assert!(cfg.lm_len * 2 >= cfg.l);
        }
        // non-doubling keeps the same length
        let same = cfg.next(3, false);
        assert_eq!(same.l, cfg.l);
        assert_eq!(same.w0, cfg.end());
    }

    #[test]
    fn steady_window_grows_with_rho() {
        let n = 3;
        let l0 = initial_window_size(n);
        let l_half = steady_window_size(n, Rate::new(1, 2), 2);
        let l_three_quarters = steady_window_size(n, Rate::new(3, 4), 2);
        assert!(l_half >= l0);
        assert!(l_three_quarters >= l_half);
        // the steady window really carries a window's worth of injections
        let cfg = WindowCfg::new(n, 0, l_half);
        assert!(cfg.lm_len * 2 >= cfg.l + 4);
        assert_eq!(impl_latency_bound(n, Rate::new(1, 2), 2), 2 * l_half);
    }

    #[test]
    fn aux_capacity_covers_worst_case() {
        // Per (i, j) pair the stage offers aux_phases slots; a small station
        // holds < 4n·lg L old packets and a relay adopts at most
        // (2+3·lgL)(n−1) < 4n·lgL, so 8n·lgL slots suffice (paper §4.2).
        for n in [3usize, 5, 8] {
            let cfg = WindowCfg::first(n);
            let worst = cfg.small_threshold(n) + cfg.phase_len() * (n as u64 - 1);
            assert!(cfg.aux_phases(n) >= worst.min(2 * cfg.small_threshold(n)),);
            assert!(8 * n as u64 * cfg.g >= 2 * 4 * n as u64 * cfg.g - cfg.g);
        }
    }
}
