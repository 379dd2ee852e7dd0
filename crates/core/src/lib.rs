//! # emac-core — the routing algorithms of Chlebus et al. (SPAA 2019)
//!
//! The paper's six deterministic distributed routing algorithms for
//! multiple access channels under energy caps, plus the Table-1 bound
//! formulas, a stability detector, and the run path every scenario takes.
//!
//! | Algorithm | §: | Cap | Class | Guarantee |
//! |-----------|----|-----|-------|-----------|
//! | [`orchestra::Orchestra`] | 3.1 | 3 | NObl·Gen·Dir | queues ≤ 2n³+β at ρ = 1 |
//! | [`count_hop::CountHop`] | 4.1 | 2 | NObl·Gen·Dir | latency ≤ 2(n²+β)/(1−ρ) |
//! | [`adjust_window::AdjustWindow`] | 4.2 | 2 | NObl·PP·Ind | latency ≤ (18n³log²n+2β)/(1−ρ) |
//! | [`k_cycle::KCycle`] | 5 | k | Obl·PP·Ind | latency ≤ (32+β)n for ρ < (k−1)/(n−1) |
//! | [`k_clique::KClique`] | 6 | k | Obl·PP·Dir | latency ≤ 8(n²/k)(1+β/2k) |
//! | [`k_subsets::KSubsets`] | 6 | k | Obl·Gen·Dir | queues ≤ 2C(n,k)(n²+β) at ρ = k(k−1)/(n(n−1)) |
//!
//! ```
//! use emac_core::prelude::*;
//! use emac_adversary::UniformRandom;
//! use emac_sim::Rate;
//!
//! // k-Cycle at 3/4 of its stability threshold, with a drain check.
//! let rho = bounds::k_cycle_rate_threshold(9, 3).scaled(3, 4);
//! let report = ScenarioSpec::new("k-cycle", "uniform")
//!     .n(9)
//!     .rho(rho)
//!     .beta(2)
//!     .rounds(30_000)
//!     .drain(30_000)
//!     .run(&KCycle::new(3), Box::new(UniformRandom::new(1)));
//! assert!(report.clean());
//! assert_eq!(report.drained, Some(true));
//! assert!(report.latency() as f64 <= bounds::k_cycle_latency_bound(9, 2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjust_window;
pub mod algorithm;
pub mod balance;
pub mod baseline;
pub mod bounds;
pub mod campaign;
pub mod combinatorics;
pub mod count_hop;
pub mod digest;
pub mod frontier;
pub mod journal;
pub mod k_clique;
pub mod k_cycle;
pub mod k_subsets;
pub mod obs;
pub mod orchestra;
pub mod output;
pub mod runner;
pub mod shard;
pub mod stability;

pub use adjust_window::AdjustWindow;
pub use algorithm::Algorithm;
pub use baseline::DutyCycle;
pub use campaign::{
    Campaign, CampaignResult, Checkpoint, CsvStreamSink, Grid, JsonLinesSink, MetricsDetail,
    ResultSink, ScenarioFactory, ScenarioRun, ScenarioSpec,
};
pub use count_hop::CountHop;
pub use digest::{report_digest, report_digest_hex, Fnv64};
pub use frontier::{Frontier, FrontierCheckpoint, FrontierSpec};
pub use k_clique::KClique;
pub use k_cycle::KCycle;
pub use k_subsets::{KSubsets, ThreadSubroutine};
pub use obs::{EventLog, ObsEvent, ObsReport, ObservedSink, Observer, Progress, RunKind};
pub use orchestra::Orchestra;
pub use runner::RunReport;
pub use stability::{StabilityReport, Verdict};

/// Common imports for experiments.
pub mod prelude {
    pub use crate::adjust_window::AdjustWindow;
    pub use crate::algorithm::Algorithm;
    pub use crate::baseline::DutyCycle;
    pub use crate::bounds;
    pub use crate::campaign::{
        Campaign, CampaignResult, Checkpoint, CsvStreamSink, Grid, JsonLinesSink, MetricsDetail,
        ResultSink, ScenarioFactory, ScenarioSpec,
    };
    pub use crate::count_hop::CountHop;
    pub use crate::digest::{report_digest, report_digest_hex};
    pub use crate::frontier::{Frontier, FrontierCheckpoint, FrontierSpec};
    pub use crate::k_clique::KClique;
    pub use crate::k_cycle::KCycle;
    pub use crate::k_subsets::{KSubsets, ThreadSubroutine};
    pub use crate::orchestra::Orchestra;
    pub use crate::runner::RunReport;
    pub use crate::stability::{StabilityReport, Verdict};
}
