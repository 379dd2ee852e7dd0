//! High-level experiment runner.
//!
//! Wraps the simulator in the workflow every experiment shares: build the
//! algorithm, wire an adversary (possibly one that inspects the oblivious
//! schedule, as the lower-bound constructions do), run for a number of
//! rounds, optionally drain, and classify stability.

use std::sync::Arc;

use emac_sim::{
    Adversary, FaultSpec, Metrics, OnSchedule, Rate, SimConfig, Simulator, Violations, WakeMode,
};

use crate::algorithm::Algorithm;
use crate::stability::{classify, StabilityReport};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Runner {
    n: usize,
    rho: Rate,
    beta: Rate,
    rounds: u64,
    cap_override: Option<usize>,
    drain_rounds: Option<u64>,
    probe_cap: Option<u64>,
    faults: Option<FaultSpec>,
}

impl Runner {
    /// Runner for `n` stations with defaults: `ρ = 1/2`, `β = 1`, 100 000
    /// rounds, no drain phase.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rho: Rate::new(1, 2),
            beta: Rate::integer(1),
            rounds: 100_000,
            cap_override: None,
            drain_rounds: None,
            probe_cap: None,
            faults: None,
        }
    }

    /// Set the injection rate ρ.
    pub fn rate(mut self, rho: Rate) -> Self {
        self.rho = rho;
        self
    }

    /// Set the burstiness coefficient β. Accepts anything convertible to a
    /// [`Rate`]: an integer (`.beta(2)`) as before, or a general rational
    /// (`.beta(Rate::new(3, 2))`) matching the paper's β ∈ ℚ and
    /// `SimConfig`.
    pub fn beta(mut self, beta: impl Into<Rate>) -> Self {
        self.beta = beta.into();
        self
    }

    /// Set the number of rounds to simulate.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Override the energy cap (default: the algorithm's requirement).
    pub fn cap(mut self, cap: usize) -> Self {
        self.cap_override = Some(cap);
        self
    }

    /// After the main run, stop injections and let the system drain for at
    /// most this many rounds, recording whether it emptied.
    pub fn drain(mut self, max_rounds: u64) -> Self {
        self.drain_rounds = Some(max_rounds);
        self
    }

    /// Run as a stability *probe*: stop early once the total queued packets
    /// exceed `queue_cap` and classify the run as [`Verdict::Diverging`].
    /// Above-boundary probes then cost a fraction of the full horizon — the
    /// knob the frontier bisection leans on. Stable runs are unaffected
    /// (the cap must sit far above the scenario's steady-state queue).
    ///
    /// [`Verdict::Diverging`]: crate::stability::Verdict::Diverging
    pub fn probe_cap(mut self, queue_cap: u64) -> Self {
        self.probe_cap = Some(queue_cap);
        self
    }

    /// Inject deterministic faults (jamming, crash/restart, deaf rounds,
    /// clock skew) described by `spec`; see [`emac_sim::faults`]. The fault
    /// stream is derived from `spec.seed`, never the scenario seed, so every
    /// seed of an ensemble sees the identical fault schedule.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Run `algorithm` against a fixed adversary.
    pub fn run(&self, algorithm: &dyn Algorithm, adversary: Box<dyn Adversary>) -> RunReport {
        self.run_against(algorithm, |_| adversary)
    }

    /// Run `algorithm` against an adversary built from the algorithm's
    /// oblivious schedule (`None` for adaptive algorithms) — the entry
    /// point for the Theorem 6 / Theorem 9 attack adversaries.
    pub fn run_against(
        &self,
        algorithm: &dyn Algorithm,
        make_adversary: impl FnOnce(Option<&Arc<dyn OnSchedule>>) -> Box<dyn Adversary>,
    ) -> RunReport {
        let run: Result<RunReport, std::convert::Infallible> =
            self.try_run_against(algorithm, |s| Ok(make_adversary(s)));
        match run {
            Ok(report) => report,
        }
    }

    /// Like [`Runner::run_against`], but the adversary constructor may fail
    /// (e.g. a name registry rejecting a schedule-aware adversary for an
    /// adaptive algorithm). Nothing is simulated when it does.
    pub fn try_run_against<E>(
        &self,
        algorithm: &dyn Algorithm,
        make_adversary: impl FnOnce(Option<&Arc<dyn OnSchedule>>) -> Result<Box<dyn Adversary>, E>,
    ) -> Result<RunReport, E> {
        let mut sim = self.simulator(algorithm, make_adversary)?;
        let tripped_round = match self.probe_cap {
            Some(queue_cap) => sim.run_probe_round(self.rounds, queue_cap),
            None => {
                sim.run(self.rounds);
                None
            }
        };
        let drained = self.drain_rounds.map(|max| sim.run_until_drained(max));
        let metrics = sim.metrics().clone();
        let mut stability = classify(&metrics);
        if tripped_round.is_some() {
            // The probe cap is evidence of divergence in itself; a tripped
            // run may have too few samples for the slope classifier.
            stability.verdict = crate::stability::Verdict::Diverging;
        }
        Ok(RunReport {
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
        })
    }

    /// The simulator this runner describes, before its first round: the
    /// algorithm built for `n` stations under the cap in force, against an
    /// adversary built from the algorithm's oblivious schedule (`None` for
    /// adaptive algorithms). The queue series takes about 2048 samples
    /// over `rounds`.
    pub fn simulator<E>(
        &self,
        algorithm: &dyn Algorithm,
        make_adversary: impl FnOnce(Option<&Arc<dyn OnSchedule>>) -> Result<Box<dyn Adversary>, E>,
    ) -> Result<Simulator, E> {
        let cap = self.cap_override.unwrap_or_else(|| algorithm.required_cap(self.n));
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
    use crate::stability::Verdict;
    use emac_adversary::{LeastOnStation, UniformRandom};

    #[test]
    fn runs_adaptive_algorithm_end_to_end() {
        let report = Runner::new(4)
            .rate(Rate::new(1, 2))
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
        let report = Runner::new(9)
            .rate(Rate::new(5, 12)) // > k/n = 1/3
            .beta(2)
            .rounds(60_000)
            .run_against(&alg, |schedule| {
                let s = schedule.expect("k-Cycle is oblivious").clone();
                Box::new(LeastOnStation::new(&s, 9, 10_000))
            });
        assert_eq!(report.stability.verdict, Verdict::Diverging, "{report}");
    }
}
