//! Exact rational injection rates and the leaky-bucket budget.
//!
//! The adversary of type `(ρ, β)` may inject at most `ρ·t + β` packets in
//! every contiguous interval of `t` rounds (paper §2, "Dynamic packet
//! generation"). Floating-point accounting drifts over millions of rounds,
//! so rates are exact rationals and the bucket is integer arithmetic over a
//! common denominator.
//!
//! The budget is a token bucket: tokens start at `β`; at the beginning of
//! each round `tokens ← min(tokens, β) + ρ`; each injection spends one
//! token. This realises the leaky-bucket constraint exactly: at most
//! `⌊ρ + β⌋` injections in a single round (the paper's burstiness) and at
//! most `ρ·t + β` in every interval of length `t`.

/// An exact non-negative rational number `num / den`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rate {
    num: u64,
    den: u64,
}

impl Rate {
    /// `num / den`. Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den > 0, "rate denominator must be positive");
        let g = gcd(u128::from(num.max(1)), u128::from(den)) as u64;
        Self { num: num / g, den: den / g }
    }

    /// The integer rate `n`.
    pub fn integer(n: u64) -> Self {
        Self { num: n, den: 1 }
    }

    /// Rate 1 (the maximum throughput of a multiple access channel).
    pub fn one() -> Self {
        Self::integer(1)
    }

    /// Rate 0.
    pub fn zero() -> Self {
        Self { num: 0, den: 1 }
    }

    /// Numerator after normalisation.
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator after normalisation.
    pub fn den(&self) -> u64 {
        self.den
    }

    /// The rate as a floating-point value (for reporting only).
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact comparison with another rate.
    pub fn cmp_exact(&self, other: &Rate) -> std::cmp::Ordering {
        let a = self.num as u128 * other.den as u128;
        let b = other.num as u128 * self.den as u128;
        a.cmp(&b)
    }

    /// Whether this rate is strictly below `other`.
    pub fn lt(&self, other: &Rate) -> bool {
        self.cmp_exact(other) == std::cmp::Ordering::Less
    }

    /// This rate scaled by `p/q` (used to place a load strictly inside or
    /// outside a stability region, e.g. `threshold.scaled(9, 10)`).
    pub fn scaled(&self, p: u64, q: u64) -> Rate {
        Rate::new(self.num * p, self.den * q)
    }
}

impl From<u64> for Rate {
    fn from(n: u64) -> Self {
        Rate::integer(n)
    }
}

impl std::str::FromStr for Rate {
    type Err = String;

    /// Parse `P/Q`, or a non-negative decimal — digits with at most one
    /// point (`7`, `0.25`, `.5`) — read exactly: `0.12345` is `2469/20000`.
    /// This is the one decimal reader: JSON numbers and the numbers in spec
    /// expressions are read through it too. Exponent forms (`1e-3`) are
    /// refused. Range restrictions (e.g. ρ ≤ 1) are the caller's concern;
    /// β may legitimately exceed 1.
    fn from_str(s: &str) -> Result<Self, String> {
        if let Some((p, q)) = s.split_once('/') {
            let p: u64 = p.trim().parse().map_err(|e| format!("rate: {e}"))?;
            let q: u64 = q.trim().parse().map_err(|e| format!("rate: {e}"))?;
            if q == 0 {
                return Err("rate denominator is zero".into());
            }
            return Ok(Rate::new(p, q));
        }
        /// The integer and fraction digits of a plain decimal.
        fn decimal(t: &str) -> Option<(&str, &str)> {
            let (int, frac) = t.split_once('.').unwrap_or((t, ""));
            let digits = |part: &str| part.bytes().all(|b| b.is_ascii_digit());
            (int.len() + frac.len() > 0 && digits(int) && digits(frac)).then_some((int, frac))
        }
        let Some((int, frac)) = decimal(s) else {
            let exponent = s.find(['e', 'E']).is_some_and(|at| decimal(&s[..at]).is_some());
            return Err(if exponent {
                format!("rate {s:?} has an exponent; write it as P/Q or a plain decimal")
            } else {
                format!("rate {s:?} is not P/Q or a non-negative decimal")
            });
        };
        let frac = frac.trim_end_matches('0');
        let num = int
            .bytes()
            .chain(frac.bytes())
            .try_fold(0u64, |v, b| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
        let den = u32::try_from(frac.len()).ok().and_then(|places| 10u64.checked_pow(places));
        match (num, den) {
            (Some(num), Some(den)) => Ok(Rate::new(num, den)),
            _ => Err(format!("rate {s:?} has more digits than a u64 rational holds")),
        }
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{} (~{:.4})", self.num, self.den, self.as_f64())
        }
    }
}

/// Greatest common divisor (Euclid's algorithm). The one copy: rates,
/// the leaky bucket and the spec expressions' signed rationals all reduce
/// with it.
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Leaky-bucket budget enforcing the `(ρ, β)` constraint exactly.
///
/// All token amounts are stored as integer multiples of `1/den` where `den`
/// is the common denominator of `ρ` and `β`.
#[derive(Clone, Debug)]
pub struct LeakyBucket {
    rate_units: u128,
    beta_units: u128,
    den: u128,
    tokens: u128,
    injected_total: u64,
}

impl LeakyBucket {
    /// A bucket for an adversary of type `(rho, beta)`.
    pub fn new(rho: Rate, beta: Rate) -> Self {
        let den = lcm(rho.den() as u128, beta.den() as u128);
        let rate_units = rho.num() as u128 * (den / rho.den() as u128);
        let beta_units = beta.num() as u128 * (den / beta.den() as u128);
        Self { rate_units, beta_units, den, tokens: beta_units, injected_total: 0 }
    }

    /// Advance to the next round and return the number of whole packets that
    /// may be injected in it.
    #[inline]
    pub fn refill(&mut self) -> usize {
        self.tokens = self.tokens.min(self.beta_units) + self.rate_units;
        self.available()
    }

    /// Whole packets injectable right now, without advancing the round.
    /// Most rounds hold less than two tokens, so 0 and 1 are answered by
    /// comparison, without a branch between them; only a larger balance
    /// pays for the `u128` division.
    #[inline]
    pub fn available(&self) -> usize {
        if self.tokens.saturating_sub(self.den) < self.den {
            usize::from(self.tokens >= self.den)
        } else {
            (self.tokens / self.den) as usize
        }
    }

    /// Spend tokens for `m` injections. Panics if `m` exceeds the budget —
    /// the simulator always clamps the adversary's plan first.
    pub fn debit(&mut self, m: usize) {
        let cost = m as u128 * self.den;
        assert!(cost <= self.tokens, "leaky bucket overdraft");
        self.tokens -= cost;
        self.injected_total += m as u64;
    }

    /// Total packets injected through this bucket.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }
}

fn lcm(a: u128, b: u128) -> u128 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_normalises() {
        let r = Rate::new(4, 8);
        assert_eq!((r.num(), r.den()), (1, 2));
        assert_eq!(Rate::zero().num(), 0);
    }

    #[test]
    fn rate_ordering() {
        assert!(Rate::new(1, 3).lt(&Rate::new(1, 2)));
        assert!(!Rate::new(2, 4).lt(&Rate::new(1, 2)));
        assert!(Rate::new(999, 1000).lt(&Rate::one()));
    }

    #[test]
    fn rate_parses_all_forms() {
        assert_eq!("3/4".parse::<Rate>().unwrap(), Rate::new(3, 4));
        assert_eq!("1".parse::<Rate>().unwrap(), Rate::one());
        assert_eq!("7".parse::<Rate>().unwrap(), Rate::integer(7));
        assert_eq!("0.25".parse::<Rate>().unwrap(), Rate::new(1, 4));
        assert_eq!("3/2".parse::<Rate>().unwrap(), Rate::new(3, 2)); // β > 1 is legal
        assert!("1/0".parse::<Rate>().is_err());
        assert!("x".parse::<Rate>().is_err());
        assert!("-1".parse::<Rate>().is_err());
        assert_eq!(Rate::from(5u64), Rate::integer(5));
    }

    #[test]
    fn decimals_read_exactly() {
        let rate = |s: &str| s.parse::<Rate>();
        assert_eq!(rate("0.12345").unwrap(), Rate::new(2469, 20_000));
        assert_eq!(rate(".5").unwrap(), Rate::new(1, 2));
        assert_eq!(rate("5.").unwrap(), Rate::integer(5));
        assert_eq!(rate("0.250000000000000000000000").unwrap(), Rate::new(1, 4));
        assert_eq!(rate("0.0").unwrap(), Rate::zero());
        assert_eq!(rate("0.1234567890123456789").unwrap().den(), 10_000_000_000_000_000_000);
        assert!(rate("0.12345678901234567891").unwrap_err().contains("more digits"));
        for exponent in ["1e-3", "2.5E4", "1e"] {
            assert!(rate(exponent).unwrap_err().contains("has an exponent"), "{exponent:?}");
        }
        for bad in [".", "", "1.2.3", "+0.5", " 0.5", "inf", "NaN", "-0.5", "0.1 * ell", "e5"] {
            assert!(
                rate(bad).unwrap_err().contains("not P/Q or a non-negative decimal"),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn rate_scaled() {
        let t = Rate::new(3, 7); // e.g. (k-1)/(n-1)
        let inside = t.scaled(9, 10);
        assert!(inside.lt(&t));
        assert_eq!(inside, Rate::new(27, 70));
    }

    #[test]
    fn bucket_single_round_burstiness() {
        // rho = 1/2, beta = 3  => floor(rho + beta) = 3 per single round.
        let mut b = LeakyBucket::new(Rate::new(1, 2), Rate::integer(3));
        assert_eq!(b.refill(), 3);
    }

    #[test]
    fn bucket_interval_bound_holds() {
        // Greedy adversary can never exceed rho*t + beta over any interval.
        let rho = Rate::new(2, 3);
        let beta = Rate::integer(2);
        let mut b = LeakyBucket::new(rho, beta);
        let mut injected_at = Vec::new();
        for _ in 0..3000u64 {
            let avail = b.refill();
            b.debit(avail);
            injected_at.push(avail as u64);
        }
        // check all intervals of a few lengths
        for len in [1usize, 2, 3, 10, 100, 2999] {
            for start in (0..injected_at.len() - len).step_by(97) {
                let s: u64 = injected_at[start..start + len].iter().sum();
                let bound = (rho.num() as u128 * len as u128).div_ceil(rho.den() as u128) as u64
                    + beta.num();
                assert!(s <= bound, "interval [{start},{len}): {s} > {bound}");
            }
        }
    }

    #[test]
    fn bucket_rate_one_sustains_one_per_round() {
        let mut b = LeakyBucket::new(Rate::one(), Rate::integer(1));
        for _ in 0..100 {
            let avail = b.refill();
            assert!(avail >= 1);
            b.debit(1);
        }
        assert_eq!(b.injected_total(), 100);
    }

    #[test]
    fn bucket_saves_nothing_beyond_beta() {
        // Not injecting for a long time must not allow an unbounded burst.
        let mut b = LeakyBucket::new(Rate::new(1, 2), Rate::integer(4));
        for _ in 0..1000 {
            b.refill();
        }
        assert_eq!(b.available(), 4); // min(tokens,beta)+rho = 4.5 -> floor 4
    }

    #[test]
    fn whole_packets_match_floor_division_at_every_balance() {
        // Balances around 0, 1, 2 and 3 whole packets, over a few
        // denominators: the comparison answers equal the division.
        for (num, den) in [(1, 1), (1, 3), (2, 7), (5, 12)] {
            let mut b = LeakyBucket::new(Rate::new(num, den), Rate::integer(3));
            for _ in 0..40 {
                let want = (b.tokens / b.den) as usize;
                assert_eq!(b.available(), want, "{num}/{den} at {} units", b.tokens);
                b.tokens += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "overdraft")]
    fn bucket_overdraft_panics() {
        let mut b = LeakyBucket::new(Rate::new(1, 2), Rate::integer(1));
        b.refill();
        b.debit(5);
    }
}
