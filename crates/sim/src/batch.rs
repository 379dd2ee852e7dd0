//! Several executions of one scenario, stepped lane by lane.
//!
//! A [`BatchSimulator`] holds S solo [`Simulator`]s ("lanes"), typically
//! one per seed, and runs each in turn. Lanes share nothing, so lane `i`
//! is by construction the solo run of its seed. It survives because the
//! traced end-to-end benchmark replays lanes through it; the product runs
//! every seed as its own campaign row (`emac run --seeds`, frontier
//! ensembles).

use crate::engine::Simulator;
use crate::hooks::SimHooks;

/// S executions of one scenario, stepped lane by lane (see the module
/// docs). Build the lanes as ordinary [`Simulator`]s — one per seed — and
/// hand them over; recover them with [`BatchSimulator::into_lanes`].
pub struct BatchSimulator {
    lanes: Vec<Simulator>,
    /// Lanes still stepping; a probe lane that trips its cap keeps its
    /// final state and sits out every later [`BatchSimulator::run`].
    active: Vec<bool>,
}

impl BatchSimulator {
    /// Wrap `lanes` (panics when there are none).
    pub fn new(lanes: Vec<Simulator>) -> Self {
        assert!(!lanes.is_empty(), "a batch needs at least one lane");
        let active = vec![true; lanes.len()];
        Self { lanes, active }
    }

    /// Read access to the lanes, in construction order.
    pub fn lanes(&self) -> &[Simulator] {
        &self.lanes
    }

    /// Phase counters summed over every lane (see [`SimHooks`]).
    pub fn hooks(&self) -> SimHooks {
        let mut total = SimHooks::default();
        for lane in &self.lanes {
            total.merge(lane.hooks());
        }
        total
    }

    /// Run `rounds` more rounds on every active lane.
    pub fn run(&mut self, rounds: u64) {
        for (lane, &live) in self.lanes.iter_mut().zip(&self.active) {
            if live {
                lane.run(rounds);
            }
        }
    }

    /// Run every active lane as a stability probe of up to `rounds`
    /// rounds (see [`Simulator::run_probe_round`]). Returns, per lane, the
    /// round whose step tripped `queue_cap`, or `None` for lanes that ran
    /// the full horizon or were already inactive. Tripped lanes keep their
    /// final state and stay out of any later [`BatchSimulator::run`].
    pub fn run_probe(&mut self, rounds: u64, queue_cap: u64) -> Vec<Option<u64>> {
        self.lanes
            .iter_mut()
            .zip(&mut self.active)
            .map(|(lane, active)| {
                let tripped = if *active { lane.run_probe_round(rounds, queue_cap) } else { None };
                *active &= tripped.is_none();
                tripped
            })
            .collect()
    }

    /// Disable injections on every lane and drain it (see
    /// [`Simulator::run_until_drained`]). Returns whether each lane
    /// emptied within `max_rounds`; lanes that tripped a probe drain from
    /// their tripping round.
    pub fn run_until_drained(&mut self, max_rounds: u64) -> Vec<bool> {
        self.lanes.iter_mut().map(|lane| lane.run_until_drained(max_rounds)).collect()
    }

    /// Dissolve the batch back into its lanes, in construction order.
    pub fn into_lanes(self) -> Vec<Simulator> {
        self.lanes
    }
}
