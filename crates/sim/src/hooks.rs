//! Phase counters behind the engine's observability seam.
//!
//! The round loop must stay allocation-free and byte-deterministic, so the
//! engine cannot call out to clocks or trait objects mid-round. Instead it
//! bumps the plain `u64` counters here — one per phase of interest — and
//! the observability layer (`emac_core::obs`) samples wall-clock time only
//! at row/probe boundaries, dividing elapsed time by the rounds counted in
//! between. Nothing in this module is folded into any report digest:
//! [`SimHooks`] is read-only telemetry about *how* an execution ran, never
//! about *what* it computed.

/// Per-phase round counters maintained by the engine's round loop.
///
/// Every field is a monotone count; incrementing one is a single integer
/// add, so the hooks are always armed — there is no disabled mode to
/// diverge from. Aggregate lanes with [`SimHooks::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimHooks {
    /// Rounds executed: stepped, or passed over by a drain's fast-forward
    /// (`skipped_rounds`).
    pub rounds: u64,
    /// Rounds that rolled a fault plan (phase 0 took the faulted branch).
    pub fault_rounds: u64,
    /// Rounds whose wake set came from the packed schedule cache.
    pub wake_table_rounds: u64,
    /// Rounds whose wake set was enumerated station by station (adaptive
    /// timers, uncached schedules, or wake-affecting faults).
    pub wake_enum_rounds: u64,
    /// Drain rounds in which every station slept, passed over in one jump
    /// instead of stepped (see `Simulator::run_until_drained`). Every
    /// round is counted by exactly one of `wake_table_rounds`,
    /// `wake_enum_rounds` and this field.
    pub skipped_rounds: u64,
    /// Always 0: no engine path reads a shared wake set since lockstep
    /// seed batches were retired. Kept because the end-to-end benchmark
    /// still reports it.
    pub wake_shared_rounds: u64,
    /// Protocol `on_feedback` invocations (one per switched-on station per
    /// round) — the dominant per-round work for dense wake sets.
    pub feedback_calls: u64,
}

impl SimHooks {
    /// Fold another run's counters into this one (used to report totals
    /// over several lanes).
    pub fn merge(&mut self, other: &SimHooks) {
        self.rounds += other.rounds;
        self.fault_rounds += other.fault_rounds;
        self.wake_table_rounds += other.wake_table_rounds;
        self.wake_enum_rounds += other.wake_enum_rounds;
        self.skipped_rounds += other.skipped_rounds;
        self.wake_shared_rounds += other.wake_shared_rounds;
        self.feedback_calls += other.feedback_calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = SimHooks {
            rounds: 1,
            fault_rounds: 2,
            wake_table_rounds: 3,
            wake_enum_rounds: 4,
            skipped_rounds: 7,
            wake_shared_rounds: 5,
            feedback_calls: 6,
        };
        let b = SimHooks {
            rounds: 10,
            fault_rounds: 20,
            wake_table_rounds: 30,
            wake_enum_rounds: 40,
            skipped_rounds: 70,
            wake_shared_rounds: 50,
            feedback_calls: 60,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SimHooks {
                rounds: 11,
                fault_rounds: 22,
                wake_table_rounds: 33,
                wake_enum_rounds: 44,
                skipped_rounds: 77,
                wake_shared_rounds: 55,
                feedback_calls: 66,
            }
        );
    }
}
