//! Running a scenario: the simulator a [`ScenarioSpec`] describes, the one
//! drive path every run takes, and the [`RunReport`] it yields.
//!
//! Every campaign row, `emac run --seeds` lane and frontier probe, and
//! `emac run --trace`, build their simulator with
//! [`ScenarioSpec::simulator`] and run it with [`ScenarioSpec::drive`]:
//! the horizon (cut short by the probe cap), then the drain, then the
//! stability verdict. [`ScenarioSpec::run`] is both steps for callers that
//! already hold the algorithm and adversary objects.

use std::convert::Infallible;
use std::sync::Arc;

use emac_sim::{Adversary, Metrics, OnSchedule, Rate, SimConfig, Simulator, Violations, WakeMode};

use crate::algorithm::Algorithm;
use crate::campaign::ScenarioSpec;
use crate::stability::{classify, StabilityReport, Verdict};

impl ScenarioSpec {
    /// The simulator this spec describes, before its first round: the
    /// algorithm built for `n` stations under the cap in force (the
    /// spec's `cap`, or the algorithm's requirement), with the spec's
    /// rate, burstiness and faults, against an adversary built from the
    /// algorithm's oblivious schedule (`None` for adaptive algorithms).
    /// The queue series takes about 2048 samples over `rounds`. The
    /// spec's names and seed are not read: they reach the run through the
    /// objects passed in. Nothing is simulated when `make_adversary`
    /// fails.
    pub fn simulator<E>(
        &self,
        algorithm: &dyn Algorithm,
        make_adversary: impl FnOnce(Option<&Arc<dyn OnSchedule>>) -> Result<Box<dyn Adversary>, E>,
    ) -> Result<Simulator, E> {
        let cap = self.cap.unwrap_or_else(|| algorithm.required_cap(self.n));
        let mut cfg = SimConfig::new(self.n, cap)
            .adversary_type(self.rho, self.beta)
            .sample_every((self.rounds / 2_048).max(1));
        if let Some(f) = &self.faults {
            cfg = cfg.faults(f.clone());
        }
        let built = algorithm.build(self.n);
        let adversary = match &built.wake {
            WakeMode::Scheduled(s) => make_adversary(Some(s))?,
            WakeMode::Adaptive => make_adversary(None)?,
        };
        Ok(Simulator::new(cfg, built, adversary))
    }

    /// Run `sim`, built by [`ScenarioSpec::simulator`], through this spec:
    /// `rounds` rounds, stopping after the round that queues more than
    /// `probe_cap` packets; then, with a `drain` budget, at most that many
    /// rounds without injections; then classify stability. A tripped
    /// probe cap reads [`Verdict::Diverging`] whatever the slope.
    pub fn drive(&self, sim: &mut Simulator) -> RunReport {
        let tripped_round = match self.probe_cap {
            Some(queue_cap) => sim.run_probe_round(self.rounds, queue_cap),
            None => {
                sim.run(self.rounds);
                None
            }
        };
        let drained = self.drain.map(|max| sim.run_until_drained(max));
        let metrics = sim.metrics().clone();
        let mut stability = classify(&metrics);
        if tripped_round.is_some() {
            // The probe cap is evidence of divergence in itself; a tripped
            // run may have too few samples for the slope classifier.
            stability.verdict = Verdict::Diverging;
        }
        RunReport {
            algorithm: sim.algorithm_name().to_string(),
            n: self.n,
            cap: sim.config().cap,
            rho: self.rho,
            beta: self.beta,
            rounds: self.rounds,
            stability,
            metrics,
            violations: sim.violations().clone(),
            drained,
            tripped_round,
        }
    }

    /// Run `algorithm` against `adversary` as this spec describes: its
    /// [`simulator`](Self::simulator), then [`drive`](Self::drive).
    pub fn run(&self, algorithm: &dyn Algorithm, adversary: Box<dyn Adversary>) -> RunReport {
        let Ok(mut sim) = self.simulator(algorithm, |_| Ok::<_, Infallible>(adversary));
        self.drive(&mut sim)
    }
}

/// Everything measured over one experiment run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Algorithm display name.
    pub algorithm: String,
    /// System size.
    pub n: usize,
    /// Energy cap in force.
    pub cap: usize,
    /// Adversary injection rate.
    pub rho: Rate,
    /// Adversary burstiness.
    pub beta: Rate,
    /// Rounds simulated (excluding any drain phase).
    pub rounds: u64,
    /// Raw metrics.
    pub metrics: Metrics,
    /// Invariant violations (empty for a correct run).
    pub violations: Violations,
    /// Stability classification.
    pub stability: StabilityReport,
    /// Whether the system drained, when a drain phase was requested.
    pub drained: Option<bool>,
    /// The round whose step tripped the probe cap, when the run was a
    /// probe and diverged. Probe telemetry only — deliberately **not**
    /// part of the report digest, which pins observable behaviour
    /// (metrics, violations, stability), not probe bookkeeping.
    pub tripped_round: Option<u64>,
}

impl RunReport {
    /// Maximum packet delay (the paper's latency measure).
    pub fn latency(&self) -> u64 {
        self.metrics.delay.max()
    }

    /// Maximum total queued packets (the paper's queue-size measure).
    pub fn max_queue(&self) -> u64 {
        self.metrics.max_total_queued
    }

    /// Whether the run respected every model invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_clean()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} | n={} cap={} rho={} beta={} rounds={}",
            self.algorithm, self.n, self.cap, self.rho, self.beta, self.rounds
        )?;
        writeln!(
            f,
            "  delivered {}/{} | latency max {} mean {:.1} | queue max {} | energy/round {:.2}",
            self.metrics.delivered,
            self.metrics.injected,
            self.latency(),
            self.metrics.delay.mean(),
            self.max_queue(),
            self.metrics.energy_per_round()
        )?;
        write!(f, "  stability: {} | invariants: {}", self.stability, self.violations)?;
        if let Some(d) = self.drained {
            write!(f, " | drained: {}", if d { "yes" } else { "NO" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_hop::CountHop;
    use crate::k_cycle::KCycle;
    use emac_adversary::{LeastOnStation, UniformRandom};

    #[test]
    fn runs_adaptive_algorithm_end_to_end() {
        let report = ScenarioSpec::new("count-hop", "uniform")
            .n(4)
            .beta(2)
            .rounds(20_000)
            .drain(5_000)
            .run(&CountHop::new(), Box::new(UniformRandom::new(1)));
        assert!(report.clean(), "{}", report.violations);
        assert_eq!(report.cap, 2);
        assert_eq!(report.stability.verdict, Verdict::Stable);
        assert_eq!(report.drained, Some(true));
        assert_eq!(report.metrics.delivered, report.metrics.injected);
        // Display smoke test
        let text = report.to_string();
        assert!(text.contains("Count-Hop"));
        assert!(text.contains("Stable"));
    }

    #[test]
    fn schedule_reaches_attack_adversaries() {
        let alg = KCycle::new(3);
        let spec = ScenarioSpec::new("k-cycle", "least-on")
            .n(9)
            .rho(Rate::new(5, 12)) // > k/n = 1/3
            .beta(2)
            .rounds(60_000);
        let Ok(mut sim) = spec.simulator(&alg, |schedule| {
            let s = schedule.expect("k-Cycle is oblivious");
            Ok::<_, Infallible>(Box::new(LeastOnStation::new(s, 9, 10_000)))
        });
        let report = spec.drive(&mut sim);
        assert_eq!(report.stability.verdict, Verdict::Diverging, "{report}");
    }
}
