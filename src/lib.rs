//! # emac — energy-efficient adversarial routing on shared channels
//!
//! Facade crate for the reproduction of *"Energy Efficient Adversarial
//! Routing in Shared Channels"* (Chlebus, Hradovich, Jurdziński, Klonowski,
//! Kowalski — SPAA 2019): deterministic distributed routing algorithms on
//! multiple access channels subject to an energy cap, evaluated against
//! leaky-bucket adversaries.
//!
//! The workspace is organised as:
//!
//! * [`sim`] — the round-synchronous channel simulator (model substrate);
//! * [`adversary`] — leaky-bucket adversaries, from simple injection
//!   patterns to the constructive lower-bound adversaries of the paper;
//! * [`broadcast`] — the broadcast building blocks from the cited prior
//!   work (RRW, OF-RRW, MBTF);
//! * [`core`] — the paper's six routing algorithms, the Table-1 bound
//!   formulas, and the scenario run path and campaigns.
//!
//! See the `examples/` directory for runnable scenarios and
//! `crates/bench` for the Table-1 reproduction harness.

#![forbid(unsafe_code)]

pub use emac_adversary as adversary;
pub use emac_broadcast as broadcast;
pub use emac_core as core;
pub use emac_sim as sim;

pub mod cli;
pub mod registry;

/// Convenience re-exports covering the common experiment workflow.
pub mod prelude {
    pub use emac_adversary::prelude::*;
    pub use emac_core::prelude::*;
    pub use emac_sim::{Rate, SimConfig, Simulator};
}
