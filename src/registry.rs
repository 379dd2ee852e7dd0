//! The one name→constructor registry shared by the CLI, the campaign
//! executor, and every bench binary.
//!
//! A [`ScenarioSpec`] names its algorithm and adversary; this registry is
//! the single place where those names become objects. It lives in the
//! facade crate because it must see both the algorithms (`emac-core`) and
//! the adversary implementations (`emac-adversary`); the orchestration
//! machinery in `emac_core::campaign` only knows the [`ScenarioFactory`]
//! trait.

use std::sync::Arc;

use emac_adversary::{
    Bursty, LeastOnPair, LeastOnStation, Lemma1Adversary, RoundRobinLoad, SingleTarget,
    SleeperTargeting, SpreadFromOne, UniformRandom,
};
use emac_core::campaign::{ScenarioFactory, ScenarioSpec};
use emac_core::prelude::*;
use emac_sim::{Adversary, NoInjections, OnSchedule};

/// The default registry: every algorithm of the paper plus the baseline,
/// and every adversary family the experiments use.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry;

/// `(name, description)` rows for `emac list` and documentation.
pub const ALGORITHMS: &[(&str, &str)] = &[
    ("orchestra", "cap 3, stable at rho = 1 (queues <= 2n^3+beta)"),
    ("orchestra-nomb", "ablation: Orchestra without move-big-to-front"),
    ("count-hop", "cap 2, universal, latency O((n^2+beta)/(1-rho))"),
    ("adjust-window", "cap 2, universal, plain packets"),
    ("k-cycle", "cap k (--k), oblivious, rho < (k-1)/(n-1)"),
    ("k-cycle:P/Q", "ablation: k-Cycle with activity segment scaled by P/Q"),
    ("k-clique", "cap k, oblivious direct"),
    ("k-subsets", "cap k, oblivious direct, optimal rate k(k-1)/(n(n-1))"),
    ("k-subsets-rrw", "bounded-latency variant"),
    ("duty-cycle", "uncoordinated baseline (loses packets by design)"),
];

/// `(name, description)` rows for the adversary families.
pub const ADVERSARIES: &[(&str, &str)] = &[
    ("none", "no injections"),
    ("uniform", "uniform random sources and destinations (seeded)"),
    ("single-target", "flood one station for one destination (target/dest)"),
    ("round-robin", "rotating sources and destinations"),
    ("bursty", "periodic full-budget bursts into one station (target, period)"),
    ("spread-from-one", "one source station, rotating destinations (target)"),
    ("spread-from-one-rand", "one source station, seeded random destinations (target)"),
    ("sleeper", "adaptive: targets whoever sleeps (Theorem 2)"),
    ("lemma1", "adaptive: the Lemma 1 construction"),
    ("least-on", "schedule-aware: floods the least-on station (Theorem 6; horizon)"),
    ("least-on-pair", "schedule-aware: floods the least co-scheduled pair (Theorem 9; horizon)"),
];

/// Default schedule-analysis horizon when a spec names a schedule-aware
/// adversary without setting one.
pub const DEFAULT_HORIZON: u64 = 20_000;

impl Registry {
    /// Construct the algorithm a spec names (see [`ALGORITHMS`]).
    pub fn make_algorithm(spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        // "k-cycle:P/Q" scales the activity segment δ by P/Q (ablation A2)
        if let Some(scale) = spec.algorithm.strip_prefix("k-cycle:") {
            let (num, den) = scale
                .split_once('/')
                .ok_or_else(|| format!("bad delta scale {scale:?}, expected P/Q"))?;
            let num: u64 = num.parse().map_err(|e| format!("delta scale: {e}"))?;
            let den: u64 = den.parse().map_err(|e| format!("delta scale: {e}"))?;
            if num == 0 || den == 0 {
                return Err("delta scale must be positive".into());
            }
            return Ok(Box::new(KCycle::with_delta_scale(spec.k, num, den)));
        }
        Ok(match spec.algorithm.as_str() {
            "orchestra" => Box::new(Orchestra::new()),
            "orchestra-nomb" => Box::new(Orchestra::without_move_big()),
            "count-hop" => Box::new(CountHop::new()),
            "adjust-window" => Box::new(AdjustWindow::new()),
            "k-cycle" => Box::new(KCycle::new(spec.k)),
            "k-clique" => Box::new(KClique::new(spec.k)),
            "k-subsets" => Box::new(KSubsets::new(spec.k)),
            "k-subsets-rrw" => Box::new(KSubsets::with_rrw(spec.k)),
            "duty-cycle" => Box::new(DutyCycle::seeded(spec.k, spec.seed)),
            other => return Err(format!("unknown algorithm {other:?} (see `emac list`)")),
        })
    }

    /// Construct the adversary a spec names (see [`ADVERSARIES`]).
    /// `schedule` must be the algorithm's on/off schedule for the
    /// schedule-aware families.
    pub fn make_adversary(
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        let target = spec.target.unwrap_or(0);
        let dest = spec.dest.unwrap_or(spec.n.saturating_sub(1));
        if target >= spec.n || dest >= spec.n {
            return Err(format!("target/dest out of range for n={}", spec.n));
        }
        let horizon = spec.horizon.unwrap_or(DEFAULT_HORIZON);
        Ok(match spec.adversary.as_str() {
            "none" => Box::new(NoInjections),
            "uniform" => Box::new(UniformRandom::new(spec.seed)),
            "single-target" => {
                if target == dest {
                    return Err("single-target needs target != dest".into());
                }
                Box::new(SingleTarget::new(target, dest))
            }
            "round-robin" => Box::new(RoundRobinLoad::new()),
            "bursty" => Box::new(Bursty::new(target, spec.period.unwrap_or(64))),
            "spread-from-one" => Box::new(SpreadFromOne::new(target)),
            "spread-from-one-rand" => Box::new(SpreadFromOne::seeded(target, spec.seed)),
            "sleeper" => Box::new(SleeperTargeting::new()),
            "lemma1" => Box::new(Lemma1Adversary::new()),
            "least-on" => {
                let s = schedule.ok_or_else(|| oblivious_only(spec))?;
                Box::new(LeastOnStation::new(s, spec.n, horizon))
            }
            "least-on-pair" => {
                let s = schedule.ok_or_else(|| oblivious_only(spec))?;
                Box::new(LeastOnPair::new(s, spec.n, horizon))
            }
            other => return Err(format!("unknown adversary {other:?} (see `emac list`)")),
        })
    }
}

fn oblivious_only(spec: &ScenarioSpec) -> String {
    format!(
        "adversary {:?} needs a precomputed on/off schedule, but none was supplied — \
         either {:?} is adaptive (it has no schedule), or this entry point does not \
         provide schedules (use `emac campaign` or `ScenarioSpec::simulator`)",
        spec.adversary, spec.algorithm
    )
}

impl ScenarioFactory for Registry {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        Registry::make_algorithm(spec)
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        Registry::make_adversary(spec, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_core::campaign::Campaign;
    use emac_sim::Rate;

    #[test]
    fn every_listed_algorithm_constructs() {
        for (name, _) in ALGORITHMS {
            let mut spec = ScenarioSpec::new(name.replace("P/Q", "1/2"), "none");
            spec.n = 6;
            let alg = Registry::make_algorithm(&spec).unwrap();
            assert!(!alg.name().is_empty(), "{name}");
            assert!(alg.required_cap(6) >= 2, "{name}");
        }
        let spec = ScenarioSpec::new("nope", "none");
        assert!(Registry::make_algorithm(&spec).is_err());
        let spec = ScenarioSpec::new("k-cycle:0/2", "none");
        assert!(Registry::make_algorithm(&spec).is_err());
    }

    #[test]
    fn every_listed_adversary_constructs_with_the_right_inputs() {
        // an oblivious algorithm's schedule for the schedule-aware families
        let spec = ScenarioSpec::new("k-cycle", "none");
        let built = Registry::make_algorithm(&spec).unwrap().build(6);
        let schedule = match &built.wake {
            emac_sim::WakeMode::Scheduled(s) => Arc::clone(s),
            _ => unreachable!("k-cycle is oblivious"),
        };
        for (name, _) in ADVERSARIES {
            let mut spec = ScenarioSpec::new("k-cycle", *name);
            spec.n = 6;
            spec.horizon = Some(100);
            assert!(Registry::make_adversary(&spec, Some(&schedule)).is_ok(), "{name}");
        }
        // schedule-aware families reject adaptive algorithms
        let spec = ScenarioSpec::new("count-hop", "least-on");
        let err = Registry::make_adversary(&spec, None).err().expect("must be rejected");
        assert!(err.contains("adaptive"), "{err}");
        // range checks
        let mut spec = ScenarioSpec::new("count-hop", "single-target");
        spec.n = 4;
        spec.target = Some(9);
        assert!(Registry::make_adversary(&spec, None).is_err());
    }

    #[test]
    fn registry_drives_a_campaign_end_to_end() {
        let mut spec = ScenarioSpec::new("count-hop", "uniform");
        spec.n = 4;
        spec.rho = Rate::new(1, 2);
        spec.rounds = 5_000;
        spec.drain = Some(5_000);
        let result = Campaign::new().threads(2).run(&[spec], &Registry);
        assert!(result.all_clean(), "{:?}", result.first_error());
        let report = result.reports().next().unwrap();
        assert_eq!(report.drained, Some(true));
        assert_eq!(report.metrics.delivered, report.metrics.injected);
    }
}
