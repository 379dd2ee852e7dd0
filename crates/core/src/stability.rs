//! Empirical stability classification.
//!
//! A routing algorithm is *stable* against an adversary class when the
//! queue size stays bounded (paper §2). An experiment cannot observe
//! "bounded", so the detector classifies the sampled queue-size series: a
//! sustained positive growth slope over the second half of a long run means
//! the execution is diverging; a slope indistinguishable from zero together
//! with a plateaued maximum means it is stable. The same machinery powers
//! the stability-frontier searches (figure F4).

use emac_sim::Metrics;

/// Verdict over one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Queue sizes plateaued.
    Stable,
    /// Queue sizes grew steadily through the end of the run.
    Diverging,
    /// The run was too short to say.
    Inconclusive,
}

/// Classification of a finished run.
#[derive(Clone, Copy, Debug)]
pub struct StabilityReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Queue growth in packets per round over the run's second half.
    pub slope: f64,
    /// Maximum total queued packets observed.
    pub max_queued: u64,
    /// Outstanding packets at the end of the run.
    pub backlog: u64,
}

/// Slope below which an execution counts as stable, in packets per round.
/// A diverging execution at any rate bounded away from the threshold grows
/// at Ω(ρ − threshold) packets per round, far above this.
pub const STABLE_SLOPE: f64 = 0.005;

/// Classify a finished run from its metrics.
pub fn classify(metrics: &Metrics) -> StabilityReport {
    let slope = metrics.queue_growth_slope();
    let verdict = if metrics.queue_series.len() < 16 {
        Verdict::Inconclusive
    } else if slope > STABLE_SLOPE {
        Verdict::Diverging
    } else {
        Verdict::Stable
    };
    StabilityReport {
        verdict,
        slope,
        max_queued: metrics.max_total_queued,
        backlog: metrics.outstanding(),
    }
}

impl std::fmt::Display for StabilityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} (slope {:+.4} pkt/round, max queue {}, backlog {})",
            self.verdict, self.slope, self.max_queued, self.backlog
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_sim::QueueSample;

    fn metrics_with_series(values: impl Iterator<Item = (u64, u64)>) -> Metrics {
        let mut m = Metrics::default();
        for (round, total_queued) in values {
            m.queue_series.push(QueueSample { round, total_queued });
            m.max_total_queued = m.max_total_queued.max(total_queued);
        }
        m
    }

    #[test]
    fn flat_series_is_stable() {
        let m = metrics_with_series((0..100).map(|i| (i * 100, 42)));
        let r = classify(&m);
        assert_eq!(r.verdict, Verdict::Stable);
        assert_eq!(r.max_queued, 42);
    }

    #[test]
    fn linear_growth_diverges() {
        let m = metrics_with_series((0..100).map(|i| (i * 100, 5 * i)));
        assert_eq!(classify(&m).verdict, Verdict::Diverging);
    }

    #[test]
    fn short_series_is_inconclusive() {
        let m = metrics_with_series((0..5).map(|i| (i * 100, 5 * i)));
        assert_eq!(classify(&m).verdict, Verdict::Inconclusive);
    }

    #[test]
    fn sawtooth_with_bounded_peaks_is_stable() {
        // Queue oscillates (phases/windows) but does not trend upward.
        let m = metrics_with_series((0..200).map(|i| (i * 100, 30 + (i % 7) * 10)));
        assert_eq!(classify(&m).verdict, Verdict::Stable);
    }

    #[test]
    fn short_run_guard_boundary_is_exactly_sixteen_samples() {
        // A steeply diverging series: 15 samples is still "too short to
        // say", the 16th sample is the first that yields a verdict.
        let steep = |len: u64| metrics_with_series((0..len).map(|i| (i * 100, 50 * i)));
        assert_eq!(classify(&steep(15)).verdict, Verdict::Inconclusive);
        assert_eq!(classify(&steep(16)).verdict, Verdict::Diverging);
        // Same boundary for a flat series resolving to Stable.
        let flat = |len: u64| metrics_with_series((0..len).map(|i| (i * 100, 42)));
        assert_eq!(classify(&flat(15)).verdict, Verdict::Inconclusive);
        assert_eq!(classify(&flat(16)).verdict, Verdict::Stable);
    }

    #[test]
    fn slope_exactly_at_threshold_counts_as_stable() {
        // Growth of 1 packet per 200 rounds gives a least-squares slope of
        // exactly STABLE_SLOPE = 0.005; the verdict uses a strict `>`, so
        // the threshold itself is still Stable. One packet more per step
        // tips it over.
        let at = metrics_with_series((0..32).map(|i| (i * 200, i)));
        let r = classify(&at);
        assert_eq!(r.slope, STABLE_SLOPE);
        assert_eq!(r.verdict, Verdict::Stable);
        let above = metrics_with_series((0..32).map(|i| (i * 200, 2 * i)));
        assert_eq!(classify(&above).verdict, Verdict::Diverging);
    }

    #[test]
    fn backlog_and_max_queue_come_from_metrics() {
        let mut m = metrics_with_series((0..20).map(|i| (i * 100, 10)));
        m.injected = 120;
        m.delivered = 100;
        let r = classify(&m);
        assert_eq!(r.backlog, 20);
        assert_eq!(r.max_queued, 10);
    }

    #[test]
    fn engine_sample_rounds_are_monotone_and_evenly_spaced() {
        // The verdict machinery assumes the queue series is sampled at
        // strictly increasing, evenly spaced rounds; pin the engine's
        // sampling contract end to end.
        use crate::campaign::ScenarioSpec;
        use crate::count_hop::CountHop;
        use emac_adversary::UniformRandom;
        use emac_sim::Rate;

        let report = ScenarioSpec::new("count-hop", "uniform")
            .n(4)
            .rho(Rate::new(1, 2))
            .beta(1)
            .rounds(10_000)
            .run(&CountHop::new(), Box::new(UniformRandom::new(3)));
        let series = &report.metrics.queue_series;
        // sample_every derives to max(rounds/2048, 1) = 4 in
        // ScenarioSpec::simulator.
        assert_eq!(series.first().map(|s| s.round), Some(0));
        assert!(series.len() >= 16, "long runs must clear the short-run guard");
        for w in series.windows(2) {
            assert_eq!(w[1].round - w[0].round, 4, "evenly spaced, strictly increasing");
        }
        assert_ne!(classify(&report.metrics).verdict, Verdict::Inconclusive);
    }
}
