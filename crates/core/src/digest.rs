//! Deterministic digests of run results.
//!
//! The engine is deterministic: the same algorithm, adversary, and
//! configuration must produce byte-identical results on every run, on every
//! platform, at every optimisation level. This module folds an entire
//! [`RunReport`] — scalar metrics, the sampled queue series, per-station
//! counters, the delay histogram, violations, and the stability verdict —
//! into a single 64-bit FNV-1a digest. The golden determinism tests pin
//! these digests for a fixed scenario matrix, so any refactoring of the hot
//! path must reproduce the old executions exactly or fail loudly.
//!
//! The digest hashes *values*, never memory representations, so it is
//! endianness- and platform-independent. Floating-point inputs are folded
//! via their IEEE-754 bit patterns (`f64::to_bits`), which is exact.

use emac_sim::{Metrics, Violations};

use crate::runner::RunReport;
use crate::stability::Verdict;

/// Incremental FNV-1a (64-bit) hasher over structured values.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a `u64` as its 8 little-endian bytes (fixed width, so adjacent
    /// fields cannot alias each other's encodings).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a `u128`.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a `usize` (widened, so 32- and 64-bit platforms agree).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Fold an `f64` by IEEE bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn fold_metrics(h: &mut Fnv64, m: &Metrics) {
    h.u64(m.rounds)
        .u64(m.injected)
        .u64(m.self_delivered)
        .u64(m.delivered)
        .u64(m.adoptions)
        .u64(m.max_total_queued)
        .u64(m.max_station_queued)
        .u64(m.total_queued)
        .u64(m.silent_rounds)
        .u64(m.packet_rounds)
        .u64(m.light_rounds)
        .u64(m.collision_rounds)
        .u64(m.energy_total)
        .usize(m.max_awake)
        .u64(m.control_bits_total)
        .usize(m.control_bits_max);
    h.u64(m.delay.count()).u64(m.delay.max()).u128(m.delay.sum());
    for &b in m.delay.log2_buckets() {
        h.u64(b);
    }
    h.usize(m.queue_series.len());
    for s in &m.queue_series {
        h.u64(s.round).u64(s.total_queued);
    }
    h.usize(m.delivered_per_dest.len());
    for &d in &m.delivered_per_dest {
        h.u64(d);
    }
    h.usize(m.injected_per_station.len());
    for &i in &m.injected_per_station {
        h.u64(i);
    }
}

fn fold_violations(h: &mut Fnv64, v: &Violations) {
    h.u64(v.cap_exceeded)
        .u64(v.custody)
        .u64(v.packets_lost)
        .u64(v.double_adoption)
        .u64(v.adopt_after_delivery)
        .u64(v.adopt_nothing)
        .u64(v.plain_packet)
        .u64(v.direct_violated)
        .u64(v.collisions);
    h.usize(v.protocol_flags.len());
    for f in &v.protocol_flags {
        h.u64(f.round).usize(f.station).str(f.reason);
    }
}

/// Fold everything a [`RunReport`] observed into one 64-bit digest.
pub fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv64::new();
    h.str(&r.algorithm)
        .usize(r.n)
        .usize(r.cap)
        .u64(r.rho.num())
        .u64(r.rho.den())
        .u64(r.beta.num())
        .u64(r.beta.den())
        .u64(r.rounds);
    fold_metrics(&mut h, &r.metrics);
    fold_violations(&mut h, &r.violations);
    let verdict = match r.stability.verdict {
        Verdict::Stable => 0u64,
        Verdict::Diverging => 1,
        Verdict::Inconclusive => 2,
    };
    h.u64(verdict).f64(r.stability.slope).u64(r.stability.max_queued).u64(r.stability.backlog);
    match r.drained {
        None => h.u64(0),
        Some(false) => h.u64(1),
        Some(true) => h.u64(2),
    };
    h.finish()
}

/// [`report_digest`] rendered as a fixed-width hex string (what the golden
/// tests pin).
pub fn report_digest_hex(r: &RunReport) -> String {
    format!("{:016x}", report_digest(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ScenarioSpec;
    use crate::count_hop::CountHop;
    use emac_adversary::UniformRandom;
    use emac_sim::Rate;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf29ce484222325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv64::new().bytes(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn identical_runs_digest_identically_and_fields_matter() {
        let run = |rounds: u64| {
            ScenarioSpec::new("count-hop", "uniform")
                .n(4)
                .rho(Rate::new(1, 2))
                .beta(2)
                .rounds(rounds)
                .run(&CountHop::new(), Box::new(UniformRandom::new(7)))
        };
        let a = report_digest(&run(4_000));
        let b = report_digest(&run(4_000));
        assert_eq!(a, b, "same scenario must digest identically");
        let c = report_digest(&run(4_096));
        assert_ne!(a, c, "a different execution must digest differently");
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        let r = ScenarioSpec::new("count-hop", "uniform")
            .n(4)
            .rounds(1_000)
            .run(&CountHop::new(), Box::new(UniformRandom::new(1)));
        let hex = report_digest_hex(&r);
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
