//! Property tests for the periodic schedule cache.
//!
//! The engine replaces per-round `OnSchedule::on_set_into` with a packed
//! [`ScheduleTable`] row copy whenever a schedule declares a period. That
//! substitution is only sound if (a) the declared period is honest —
//! `on_set(r)` equals `on_set(r mod period)` for every round — and (b) the
//! expanded table reproduces the direct enumeration bit for bit. This test
//! checks both for **every oblivious algorithm in the registry**, over
//! three full periods, comparing the mask row, the on-set row, and the
//! per-station `is_on` ground truth.

use std::sync::Arc;

use emac::registry::Registry;
use emac_core::campaign::ScenarioSpec;
use emac_sim::{BitSet, OnSchedule, ScheduleTable, WakeMode};

/// Build an algorithm by registry name and return its oblivious schedule.
fn schedule_of(alg: &str, n: usize, k: usize) -> Arc<dyn OnSchedule> {
    let mut spec = ScenarioSpec::new(alg, "none");
    spec.n = n;
    spec.k = k;
    let built = Registry::make_algorithm(&spec).expect("registry name").build(n);
    match built.wake {
        WakeMode::Scheduled(s) => s,
        WakeMode::Adaptive => panic!("{alg} should be energy-oblivious"),
    }
}

#[test]
fn cached_table_equals_direct_enumeration_for_every_registry_schedule() {
    // Every periodic oblivious schedule the registry can hand out, at
    // several geometries, including n > 64 (two mask words per row).
    let cases: &[(&str, &[(usize, usize)])] = &[
        ("k-cycle", &[(5, 3), (9, 3), (16, 4), (65, 8)]),
        ("k-cycle:1/2", &[(9, 3), (16, 4)]),
        ("k-clique", &[(6, 4), (8, 4), (12, 4), (66, 4)]),
        ("k-subsets", &[(5, 2), (6, 3), (8, 4), (70, 2)]),
        ("k-subsets-rrw", &[(6, 3), (8, 4)]),
    ];
    for &(alg, geometries) in cases {
        for &(n, k) in geometries {
            let schedule = schedule_of(alg, n, k);
            let period = schedule
                .period()
                .unwrap_or_else(|| panic!("{alg}(n={n},k={k}) must declare its period"));
            let table = ScheduleTable::build(schedule.as_ref(), n)
                .unwrap_or_else(|| panic!("{alg}(n={n},k={k}) must fit the table budget"));
            assert_eq!(table.period(), period, "{alg}(n={n},k={k})");
            let mut mask = BitSet::new(n);
            let mut awake = vec![usize::MAX; 3]; // deliberately dirty
            let mut direct = Vec::new();
            for round in 0..3 * period {
                schedule.on_set_into(n, round, &mut direct);
                table.fill(round % period, &mut mask, &mut awake);
                assert_eq!(
                    awake, direct,
                    "{alg}(n={n},k={k}): cached on-set diverged at round {round}"
                );
                assert_eq!(
                    table.on_set_row(round % period),
                    &direct[..],
                    "{alg}(n={n},k={k}): row view diverged at round {round}"
                );
                for s in 0..n {
                    assert_eq!(
                        mask.contains(s),
                        schedule.is_on(s, round),
                        "{alg}(n={n},k={k}): mask bit for station {s} wrong at round {round}"
                    );
                }
            }
        }
    }
}

#[test]
fn duty_cycle_is_honestly_aperiodic() {
    // The pseudorandom baseline mixes the round number into its shuffle:
    // it must declare no period and therefore get no table — the engine
    // keeps the per-round enumeration path for it.
    let schedule = schedule_of("duty-cycle", 16, 4);
    assert_eq!(schedule.period(), None);
    assert!(ScheduleTable::build(schedule.as_ref(), 16).is_none());
}

#[test]
fn declared_periods_match_the_paper_geometry() {
    // gamma = C(6,3) = 20 for k-Subsets; m = 3 pairs for k-Clique at
    // (6,4); delta * l for k-Cycle at (9,3): delta = ceil(4*8*3/6) = 16,
    // l = ceil(9/2) = 5.
    assert_eq!(schedule_of("k-subsets", 6, 3).period(), Some(20));
    assert_eq!(schedule_of("k-clique", 6, 4).period(), Some(3));
    assert_eq!(schedule_of("k-cycle", 9, 3).period(), Some(16 * 5));
}
