//! Property-style sampled checks on fleet sharding (house stand-in for a
//! proptest dependency: a pinned xorshift stream drives the sampling, so
//! every run explores the same family deterministically).
//!
//! Invariants, over randomly drawn plans, slice layouts, and steal
//! interleavings:
//!
//! * however a campaign is sliced — empty slices, singleton slices,
//!   uncovered gaps that force stealing, and any interleaving of
//!   one-unit work steps across the runners — the merged bytes equal the
//!   single-process bytes;
//! * the same holds for a frontier map whose continuation chain spans
//!   the whole unit list;
//! * every unit's lease names exactly the claimant that won it, no matter
//!   how many contending claimants race for it.

use std::path::PathBuf;

use emac::registry::Registry;
use emac_core::campaign::{Campaign, CsvStreamSink, MetricsDetail};
use emac_core::frontier::{CsvMapSink, Frontier, FrontierSpec};
use emac_core::output::Format;
use emac_core::shard::{merge, ClaimTable, ShardPlan, ShardRunner};

/// xorshift64 — deterministic parameter scatter.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn scratch(tag: &str, round: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emac-shard-prop-{}-{tag}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small random campaign: 4–9 scenarios over cheap algorithms.
fn sample_campaign(rng: &mut Rng) -> String {
    let count = 4 + rng.below(6) as usize;
    let rows: Vec<String> = (0..count)
        .map(|i| {
            let alg = rng.pick(&["count-hop", "k-cycle", "k-clique"]);
            let n = rng.pick(&[5usize, 6, 8]);
            let rho = rng.pick(&["1/8", "1/4", "3/8"]);
            let rounds = rng.pick(&[256u64, 512]);
            format!(
                r#"    {{"label": "s{i}", "algorithm": "{alg}", "adversary": "uniform",
     "n": {n}, "k": 2, "rho": "{rho}", "rounds": {rounds}, "seed": {}}}"#,
                rng.below(100)
            )
        })
        .collect();
    format!("{{\n  \"scenarios\": [\n{}\n  ]\n}}", rows.join(",\n"))
}

/// Randomize the slice layout: keep the ids but move each slice's bounds
/// inward by random amounts, producing empty slices, singletons, and
/// uncovered gaps that only work-stealing can pick up.
fn scramble_slices(plan: &mut ShardPlan, rng: &mut Rng) {
    let shards = plan.slices.len();
    let units = plan.units.len();
    let mut cuts: Vec<usize> = (0..=shards).map(|s| s * units / shards).collect();
    for cut in cuts.iter_mut().take(shards).skip(1) {
        *cut = (*cut + rng.below(2) as usize).min(units);
    }
    cuts.sort_unstable();
    for (s, slice) in plan.slices.iter_mut().enumerate() {
        slice.lo = cuts[s];
        slice.hi = cuts[s + 1];
        // Occasionally shrink the slice, leaving a gap nobody owns.
        if slice.hi > slice.lo && rng.below(3) == 0 {
            slice.hi -= 1;
        }
    }
}

/// Drive the runners one stolen-or-owned unit at a time, in a random
/// interleaving, until the claim table is exhausted.
fn run_interleaved(dir: &std::path::Path, plan: &ShardPlan, rng: &mut Rng) {
    let shards = plan.slices.len();
    let runners: Vec<ShardRunner> =
        (0..shards).map(|s| ShardRunner::new(dir, plan.clone(), s).unwrap()).collect();
    let mut started = vec![false; shards];
    loop {
        let s = rng.below(shards as u64) as usize;
        let summary = runners[s].run_with_limit(&Registry, started[s], 1).unwrap();
        started[s] = true;
        if summary.exhausted {
            break;
        }
    }
}

/// Every unit must end up leased to exactly one shard of the plan.
fn assert_exactly_once(dir: &std::path::Path, plan: &ShardPlan) {
    let owners = ClaimTable::new(dir, plan.units.len()).owners().unwrap();
    assert!(
        owners.iter().all(|o| o.is_some_and(|s| plan.slice(s).is_ok())),
        "every unit leased to a shard of the plan, got {owners:?}"
    );
}

#[test]
fn random_slices_and_steal_interleavings_merge_to_single_process_bytes() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for round in 0..6 {
        let spec_text = sample_campaign(&mut rng);
        let shards = 1 + rng.below(4) as usize;
        let mut plan =
            ShardPlan::build(&spec_text, Format::Csv, MetricsDetail::Full, shards).unwrap();
        scramble_slices(&mut plan, &mut rng);

        let dir = scratch("campaign", round);
        plan.save(&dir).unwrap();
        run_interleaved(&dir, &plan, &mut rng);
        assert_exactly_once(&dir, &plan);

        let merged_path = dir.join("merged.csv");
        merge(&dir, &merged_path).unwrap();
        let merged = std::fs::read(&merged_path).unwrap();

        let specs = emac_core::campaign::parse_campaign_spec(&spec_text).unwrap();
        let mut sink = CsvStreamSink::new(Vec::new());
        Campaign::new().run_into(&specs, &Registry, &mut sink).unwrap();
        assert_eq!(
            merged,
            sink.into_inner(),
            "round {round}: {shards}-shard interleaved merge diverged from single-process"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn frontier_chains_survive_random_interleavings_byte_identically() {
    let mut rng = Rng(0x0dd_ba11);
    for round in 0..2 {
        let tol = rng.pick(&["0.05", "0.025"]);
        let continuation = if round == 0 { ",\n  \"continuation\": \"n\"" } else { "" };
        let spec_text = format!(
            r#"{{
  "template": {{"algorithm": "k-cycle", "adversary": "uniform",
               "rounds": 500, "probe_cap": 400}},
  "axis": "rho", "lo": "0", "hi": "1/2", "tol": {tol},
  "map": {{"n": [6, 9], "k": [2]}}{continuation}
}}"#
        );
        let shards = 2 + rng.below(2) as usize;
        let mut plan =
            ShardPlan::build(&spec_text, Format::Csv, MetricsDetail::Full, shards).unwrap();
        scramble_slices(&mut plan, &mut rng);

        let dir = scratch("frontier", round);
        plan.save(&dir).unwrap();
        run_interleaved(&dir, &plan, &mut rng);
        assert_exactly_once(&dir, &plan);

        let merged_path = dir.join("merged.csv");
        merge(&dir, &merged_path).unwrap();
        let merged = std::fs::read(&merged_path).unwrap();

        let spec = FrontierSpec::parse(&spec_text).unwrap();
        let mut sink = CsvMapSink::new(Vec::new());
        Frontier::new().run_into(&spec, &Registry, &mut sink, None).unwrap();
        assert_eq!(
            merged,
            sink.into_inner(),
            "round {round}: {shards}-shard frontier merge diverged from single-process"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn contending_claimants_leave_every_unit_claimed_exactly_once() {
    let mut rng = Rng(0xc1a1_3b1e);
    for round in 0..4 {
        let units = 3 + rng.below(14) as usize;
        let claimants = 2 + rng.below(5) as usize;
        let dir = scratch("claims", round);
        std::fs::create_dir_all(dir.join("leases")).unwrap();

        // Each claimant walks the units in its own random order.
        let orders: Vec<Vec<usize>> = (0..claimants)
            .map(|_| {
                let mut order: Vec<usize> = (0..units).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
                }
                order
            })
            .collect();
        let wins: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..claimants)
                .map(|c| {
                    let order = &orders[c];
                    let dir = &dir;
                    scope.spawn(move || {
                        let table = ClaimTable::new(dir, units);
                        order.iter().copied().filter(|&u| table.try_claim(u, c).unwrap()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The wins partition the units, and each lease names its winner.
        let mut owners = vec![None; units];
        for (c, won) in wins.iter().enumerate() {
            for &unit in won {
                assert_eq!(owners[unit], None, "round {round}: unit {unit} won twice: {wins:?}");
                owners[unit] = Some(c);
            }
        }
        assert!(owners.iter().all(Option::is_some), "round {round}: wins {wins:?}");
        assert_eq!(ClaimTable::new(&dir, units).owners().unwrap(), owners, "round {round}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
