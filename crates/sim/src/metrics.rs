//! Execution metrics: latency, queue sizes, energy, channel utilisation.
//!
//! The paper's performance measures (§2, "Routing algorithms") are the
//! *queue size* (maximum number of queued packets over the execution) and
//! *latency* (maximum packet delay). Energy expenditure per round equals the
//! number of switched-on stations. All are tracked here, together with the
//! channel-utilisation counters (silent/light/packet rounds) that the
//! Orchestra analysis reasons about.

use crate::packet::Round;

/// Running scalar statistics of packet delays.
#[derive(Clone, Debug)]
pub struct DelayStats {
    count: u64,
    sum: u128,
    max: u64,
    /// log2 histogram: bucket `i` counts delays `d` with `⌊log2(d+1)⌋ = i`.
    buckets: [u64; 64],
}

impl Default for DelayStats {
    fn default() -> Self {
        Self { count: 0, sum: 0, max: 0, buckets: [0; 64] }
    }
}

impl DelayStats {
    /// Record one delivered packet's delay.
    pub fn record(&mut self, delay: u64) {
        self.count += 1;
        self.sum += delay as u128;
        self.max = self.max.max(delay);
        let b = 63 - (delay + 1).leading_zeros() as usize;
        self.buckets[b.min(63)] += 1;
    }

    /// Number of recorded delays.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Maximum delay — the paper's latency measure for this execution.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded delays (exact; feeds the determinism digests).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean delay.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw log₂ histogram: bucket `i` counts delays `d` with
    /// `⌊log₂(d+1)⌋ = i` (i.e. `d ∈ [2^i − 1, 2^{i+1} − 2]`).
    pub fn log2_buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Drop the log₂ histogram, keeping the scalar statistics (count, sum,
    /// max — and therefore the mean) intact. Used by the campaign layer's
    /// `Slim` metrics detail; [`DelayStats::quantile`] degrades to
    /// returning the maximum afterwards.
    pub fn clear_buckets(&mut self) {
        self.buckets = [0; 64];
    }

    /// Approximate p-quantile from the log2 histogram: the upper edge of
    /// the bucket holding it, capped at the largest recorded delay (no
    /// sample lies above [`max`](Self::max)).
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ((1u64 << (i + 1)) - 2).min(self.max); // max delay in bucket i
            }
        }
        self.max
    }
}

/// One sampled point of the queue-size time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueSample {
    /// Round of the sample.
    pub round: Round,
    /// Total packets queued across all stations.
    pub total_queued: u64,
}

/// All metrics collected over a run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Packets injected (excluding self-addressed ones).
    pub injected: u64,
    /// Self-addressed packets consumed immediately at injection.
    pub self_delivered: u64,
    /// Packets delivered to their destinations over the channel.
    pub delivered: u64,
    /// Packet adoptions (relay hops).
    pub adoptions: u64,
    /// Delay statistics of delivered packets.
    pub delay: DelayStats,
    /// Maximum total queued packets over any round.
    pub max_total_queued: u64,
    /// Maximum single-station queue over any round.
    pub max_station_queued: u64,
    /// Currently queued packets (maintained incrementally).
    pub total_queued: u64,
    /// Rounds with no transmission.
    pub silent_rounds: u64,
    /// Rounds in which a packet-bearing message was heard.
    pub packet_rounds: u64,
    /// Rounds in which a light (packet-less) message was heard.
    pub light_rounds: u64,
    /// Rounds lost to collisions.
    pub collision_rounds: u64,
    /// Total energy spent (station-rounds switched on).
    pub energy_total: u64,
    /// Maximum stations simultaneously on in any round.
    pub max_awake: usize,
    /// Total control bits transmitted in heard messages.
    pub control_bits_total: u64,
    /// Maximum control bits in a single heard message.
    pub control_bits_max: usize,
    /// Sampled queue-size time series.
    pub queue_series: Vec<QueueSample>,
    /// Packets delivered, by destination station.
    pub delivered_per_dest: Vec<u64>,
    /// Packets injected, by station of injection.
    pub injected_per_station: Vec<u64>,
    /// Rounds corrupted by injected jamming (see [`crate::faults`]).
    ///
    /// Fault counters are telemetry: deliberately **not** folded into report
    /// digests, so fault-free goldens are untouched by their presence.
    pub jammed_rounds: u64,
    /// Fresh crash onsets injected by the fault plan.
    pub crashes: u64,
    /// Rounds in which a switched-on station was deaf to feedback.
    pub deaf_rounds: u64,
}

impl Metrics {
    /// Metrics sized for a system of `n` stations.
    pub fn sized(n: usize) -> Self {
        Self { delivered_per_dest: vec![0; n], injected_per_station: vec![0; n], ..Self::default() }
    }

    /// Jain's fairness index over per-destination deliveries, restricted to
    /// destinations that received anything: `(Σx)² / (m·Σx²)`. 1.0 means
    /// perfectly even service; `1/m` means one destination got everything.
    /// Useful for spotting starvation (the "latency ∞" rows of Table 1).
    pub fn delivery_fairness(&self) -> f64 {
        let xs: Vec<f64> =
            self.delivered_per_dest.iter().filter(|&&x| x > 0).map(|&x| x as f64).collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        sum * sum / (xs.len() as f64 * sq)
    }

    /// Average energy per round (switched-on stations per round).
    pub fn energy_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.energy_total as f64 / self.rounds as f64
        }
    }

    /// Fraction of rounds in which a packet was heard (goodput).
    pub fn goodput(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.packet_rounds as f64 / self.rounds as f64
        }
    }

    /// Packets still queued = injected − delivered.
    pub fn outstanding(&self) -> u64 {
        self.injected - self.delivered
    }

    /// Drop the bulky per-run series — the sampled queue-size time series
    /// and the log₂ delay histogram — keeping every scalar (counts, maxima,
    /// sums, energy, per-station tallies) intact. This is the campaign
    /// layer's `Slim` metrics detail: derived scalars such as the mean
    /// delay, the maximum queue, and a stability slope computed *before*
    /// slimming are unaffected. The fault telemetry counters
    /// (`jammed_rounds`, `crashes`, `deaf_rounds`) are zeroed too: they are
    /// `Full`-detail telemetry, and zeroing them keeps Slim JSONL exports
    /// byte-identical whether or not a fault plan was armed.
    pub fn slim(&mut self) {
        self.queue_series = Vec::new();
        self.delay.clear_buckets();
        self.jammed_rounds = 0;
        self.crashes = 0;
        self.deaf_rounds = 0;
    }

    /// Least-squares slope of the sampled queue-size series over its second
    /// half, in packets per round. Near zero for stable executions; positive
    /// and bounded away from zero when queues grow without bound.
    pub fn queue_growth_slope(&self) -> f64 {
        let s = &self.queue_series;
        if s.len() < 4 {
            return 0.0;
        }
        let tail = &s[s.len() / 2..];
        let m = tail.len() as f64;
        let mean_x = tail.iter().map(|p| p.round as f64).sum::<f64>() / m;
        let mean_y = tail.iter().map(|p| p.total_queued as f64).sum::<f64>() / m;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for p in tail {
            let dx = p.round as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (p.total_queued as f64 - mean_y);
        }
        if sxx == 0.0 {
            0.0
        } else {
            sxy / sxx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_stats_basic() {
        let mut d = DelayStats::default();
        for x in [0u64, 1, 2, 3, 10, 100] {
            d.record(x);
        }
        assert_eq!(d.count(), 6);
        assert_eq!(d.max(), 100);
        let mean = d.mean();
        assert!((mean - 116.0 / 6.0).abs() < 1e-9);
        assert!(d.quantile(0.5) >= 2);
        assert!(d.quantile(1.0) >= 100);
    }

    #[test]
    fn quantile_never_exceeds_the_largest_sample() {
        let mut d = DelayStats::default();
        d.record(100); // bucket 6 spans [63, 126]
        assert_eq!(d.quantile(0.5), 100);
        assert_eq!(d.quantile(1.0), 100);
        d.record(3); // bucket 2 spans [3, 6]: its edge stays below the max
        assert_eq!(d.quantile(0.5), 6);
    }

    #[test]
    fn delay_zero_bucket() {
        let mut d = DelayStats::default();
        d.record(0);
        assert_eq!(d.buckets[0], 1);
    }

    #[test]
    fn growth_slope_flat_vs_linear() {
        let mut flat = Metrics::default();
        let mut grow = Metrics::default();
        for r in 0..100u64 {
            flat.queue_series.push(QueueSample { round: r * 10, total_queued: 50 });
            grow.queue_series.push(QueueSample { round: r * 10, total_queued: 3 * r });
        }
        assert!(flat.queue_growth_slope().abs() < 1e-9);
        assert!((grow.queue_growth_slope() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn fairness_index_extremes() {
        let mut m = Metrics::sized(4);
        m.delivered_per_dest = vec![10, 10, 10, 10];
        assert!((m.delivery_fairness() - 1.0).abs() < 1e-12);
        m.delivered_per_dest = vec![40, 0, 0, 0];
        assert!((m.delivery_fairness() - 1.0).abs() < 1e-12); // only served dests count
        m.delivered_per_dest = vec![30, 10, 0, 0];
        let f = m.delivery_fairness();
        assert!(f < 1.0 && f > 0.5, "{f}");
        assert_eq!(Metrics::sized(3).delivery_fairness(), 1.0);
    }

    #[test]
    fn energy_and_goodput_ratios() {
        let m = Metrics { rounds: 100, energy_total: 250, packet_rounds: 40, ..Default::default() };
        assert!((m.energy_per_round() - 2.5).abs() < 1e-12);
        assert!((m.goodput() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn slim_drops_series_and_keeps_scalars() {
        let mut m = Metrics::sized(4);
        m.rounds = 100;
        m.energy_total = 250;
        m.max_total_queued = 17;
        for d in [0u64, 3, 200] {
            m.delay.record(d);
        }
        for r in 0..10u64 {
            m.queue_series.push(QueueSample { round: r, total_queued: r });
        }
        m.jammed_rounds = 5;
        m.crashes = 2;
        m.deaf_rounds = 1;
        let mean_before = m.delay.mean();
        m.slim();
        assert_eq!((m.jammed_rounds, m.crashes, m.deaf_rounds), (0, 0, 0));
        assert!(m.queue_series.is_empty());
        assert!(m.delay.log2_buckets().iter().all(|&c| c == 0));
        assert_eq!(m.delay.count(), 3);
        assert_eq!(m.delay.max(), 200);
        assert_eq!(m.delay.mean(), mean_before);
        assert_eq!(m.max_total_queued, 17);
        assert!((m.energy_per_round() - 2.5).abs() < 1e-12);
        // quantile degrades to the max once the histogram is gone
        assert_eq!(m.delay.quantile(0.5), 200);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = Metrics::default();
        assert_eq!(m.energy_per_round(), 0.0);
        assert_eq!(m.goodput(), 0.0);
        assert_eq!(m.queue_growth_slope(), 0.0);
        assert_eq!(m.delay.quantile(0.9), 0);
    }
}
