//! Precomputed periodic schedule tables.
//!
//! Every energy-oblivious schedule in the paper is periodic by
//! construction: `k`-Subsets repeats after `γ = C(n,k)` phases, `k`-Clique
//! after its `m` set pairs, `k`-Cycle after one `δ·ℓ` group rotation. The
//! engine therefore does not need to re-derive the wake set from the
//! combinatorial ranking every round; one period can be expanded once, at
//! construction time, into a packed row-per-round table. Steady-state
//! wake-set determination then costs a word-row copy (the awake mask) plus
//! a slice copy (the sorted on-set) — independent of how expensive the
//! schedule's own enumeration is.
//!
//! Schedules advertise their period through [`OnSchedule::period`]
//! (default `None`); aperiodic schedules (the pseudorandom duty-cycle
//! baseline) and periods too large for the table budget transparently fall
//! back to per-round [`OnSchedule::on_set_into`] in the engine.
//!
//! Rows are indexed by *phase*, the round's position in the period. The
//! table does not reduce rounds itself: the engine tracks the phase (its
//! schedule clock, also handed to protocols as
//! [`ProtocolCtx::phase`](crate::protocol::ProtocolCtx::phase)) and
//! advances it by one comparison per round, so the per-round fill does no
//! division.

use crate::bitset::{row_set, words_for, BitSet};
use crate::packet::{Round, StationId};
use crate::protocol::OnSchedule;

/// Upper bound on the packed mask words a table may hold (8 MiB). Periods
/// beyond this budget — or on-set tables beyond [`MAX_TABLE_ENTRIES`] —
/// are not cached; the engine falls back to the schedule's own enumeration.
pub const MAX_TABLE_WORDS: usize = 1 << 20;

/// Upper bound on the total on-set entries a table may hold (32 MiB of
/// station ids on 64-bit targets).
pub const MAX_TABLE_ENTRIES: usize = 1 << 22;

/// One full period of an [`OnSchedule`], expanded into packed per-round
/// rows: a bit-mask row (who is on) and the sorted on-set (in enumeration
/// order), both exactly as `on_set_into` would produce them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTable {
    period: u64,
    words_per_row: usize,
    /// `period × words_per_row` packed mask words, row-major.
    masks: Vec<u64>,
    /// All on-sets concatenated in round order.
    stations: Vec<StationId>,
    /// `offsets[r]..offsets[r + 1]` indexes round `r`'s on-set in
    /// `stations`; `period + 1` entries.
    offsets: Vec<u32>,
}

impl ScheduleTable {
    /// Expand one full period of `schedule` for a system of `n` stations.
    /// Returns `None` when the schedule declares no period or the table
    /// would exceed the size budget — callers fall back to per-round
    /// enumeration.
    pub fn build(schedule: &dyn OnSchedule, n: usize) -> Option<Self> {
        let period = schedule.period()?;
        assert!(period > 0, "a periodic schedule must have a positive period");
        let words_per_row = words_for(n);
        let rows = usize::try_from(period).ok()?;
        if rows.checked_mul(words_per_row)? > MAX_TABLE_WORDS {
            return None;
        }
        let mut masks = vec![0u64; rows * words_per_row];
        let mut stations = Vec::new();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut on = Vec::with_capacity(n);
        offsets.push(0u32);
        for r in 0..rows {
            schedule.on_set_into(n, r as Round, &mut on);
            let row = &mut masks[r * words_per_row..(r + 1) * words_per_row];
            for &s in &on {
                debug_assert!(s < n, "schedule enumerated station {s} for a system of {n}");
                row_set(row, s);
            }
            stations.extend_from_slice(&on);
            if stations.len() > MAX_TABLE_ENTRIES {
                return None;
            }
            offsets.push(u32::try_from(stations.len()).ok()?);
        }
        Some(Self { period, words_per_row, masks, stations, offsets })
    }

    /// The schedule's period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The sorted on-set of the rounds at `phase` (`round % period`).
    #[inline]
    pub fn on_set_row(&self, phase: Round) -> &[StationId] {
        debug_assert!(phase < self.period, "phase {phase} outside the period {}", self.period);
        let r = phase as usize;
        &self.stations[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Fill the engine's per-round scratch for a round at `phase`
    /// (`round % period`, which the caller tracks): blit the mask row into
    /// `mask` and copy the on-set into `awake` (cleared first). This is the
    /// whole steady-state wake-set determination. The on-set is pushed
    /// station by station: on-sets are a cap long, and so short that a
    /// `memcpy` call costs more than the copy.
    #[inline]
    pub fn fill(&self, phase: Round, mask: &mut BitSet, awake: &mut Vec<StationId>) {
        let r = phase as usize;
        mask.copy_from_words(&self.masks[r * self.words_per_row..(r + 1) * self.words_per_row]);
        awake.clear();
        for &s in self.on_set_row(phase) {
            awake.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::StationId;

    /// Period-3 toy schedule: round r mod 3 == 0 -> {0, 2}, 1 -> {1},
    /// 2 -> {} (an empty on-set row must round-trip too).
    struct Toy;
    impl OnSchedule for Toy {
        fn is_on(&self, station: StationId, round: Round) -> bool {
            match round % 3 {
                0 => station == 0 || station == 2,
                1 => station == 1,
                _ => false,
            }
        }
        fn period(&self) -> Option<u64> {
            Some(3)
        }
    }

    #[test]
    fn table_matches_direct_enumeration_for_many_periods() {
        let table = ScheduleTable::build(&Toy, 4).expect("toy is periodic and tiny");
        assert_eq!(table.period(), 3);
        let mut mask = BitSet::new(4);
        let mut awake = vec![99usize; 4]; // deliberately dirty
        for round in 0..30u64 {
            let expect = Toy.on_set(4, round);
            table.fill(round % 3, &mut mask, &mut awake);
            assert_eq!(awake, expect, "round {round}");
            assert_eq!(table.on_set_row(round % 3), &expect[..], "round {round}");
            for s in 0..4 {
                assert_eq!(mask.contains(s), expect.contains(&s), "round {round} station {s}");
            }
        }
        // far rounds sit at their phase's row
        assert_eq!(table.on_set_row((u64::MAX - 2) % 3), &Toy.on_set(4, u64::MAX - 2)[..]);
    }

    #[test]
    fn aperiodic_schedules_get_no_table() {
        struct NoPeriod;
        impl OnSchedule for NoPeriod {
            fn is_on(&self, _s: StationId, _r: Round) -> bool {
                true
            }
        }
        assert!(ScheduleTable::build(&NoPeriod, 4).is_none());
    }

    #[test]
    fn oversized_periods_get_no_table() {
        struct Huge;
        impl OnSchedule for Huge {
            fn is_on(&self, _s: StationId, r: Round) -> bool {
                r == 0
            }
            fn period(&self) -> Option<u64> {
                Some((MAX_TABLE_WORDS as u64 + 1) * 2)
            }
        }
        // n = 65 -> 2 words per row; the budget is exceeded immediately.
        assert!(ScheduleTable::build(&Huge, 65).is_none());
    }

    #[test]
    fn multi_word_rows_round_trip() {
        struct Wide;
        impl OnSchedule for Wide {
            fn is_on(&self, station: StationId, round: Round) -> bool {
                (station as u64 + round).is_multiple_of(7)
            }
            fn period(&self) -> Option<u64> {
                Some(7)
            }
        }
        let n = 130;
        let table = ScheduleTable::build(&Wide, n).expect("period 7 fits");
        let mut mask = BitSet::new(n);
        let mut awake = Vec::new();
        for round in 0..21u64 {
            table.fill(round % 7, &mut mask, &mut awake);
            assert_eq!(awake, Wide.on_set(n, round), "round {round}");
            assert_eq!(mask.iter().collect::<Vec<_>>(), awake, "round {round}");
        }
    }
}
