//! Verdict-flip bands and adaptive seed escalation, end to end.
//!
//! Pinned contracts on top of `tests/frontier_seeds.rs` and the unit
//! tests in `emac-core`:
//!
//! 1. identical-seed ensembles collapse: `band_lo == band_hi ==
//!    boundary`, agreement exactly 1, and the legacy columns are the
//!    solo map byte-for-byte;
//! 2. a deliberately disagreeing ensemble (seeds straddling the
//!    spread-from-one-rand drift window at n=9, k=3, 16k rounds)
//!    produces a nonempty band that brackets the majority boundary,
//!    with escalation engaged and agreement strictly below 1;
//! 3. ensemble maps are byte-identical across thread counts;
//! 4. a mid-map kill + resume replays the escalation events out of
//!    `frontier.ckpt` — lane tallies included — to byte-identical
//!    output without re-running any probe;
//! 5. escalation builds every lane once: it adds lanes to a contested
//!    probe instead of re-running the ones that already landed, one
//!    worker still runs lanes probe by probe in checkpoint order, and each
//!    point's probe records are the same at any thread count.

use std::sync::{Arc, Mutex};

use emac::registry::Registry;
use emac_core::campaign::{ScenarioFactory, ScenarioSpec};
use emac_core::frontier::checkpoint::ProbeRecord;
use emac_core::frontier::{
    CsvMapSink, Frontier, FrontierCheckpoint, FrontierSpec, FrontierSummary,
};
use emac_core::Algorithm;
use emac_sim::{Adversary, OnSchedule};

/// One map point whose stability threshold sits inside the seed-noise
/// window at 16k rounds — the n=9 point of
/// `specs/frontier_theorem5_band.json`: lanes genuinely disagree near
/// 1/5, so the band is nonempty and escalation has real work to do.
const DISAGREEING: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one-rand",
               "target": 1, "beta": "1", "rounds": 16000, "probe_cap": 2000},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.0005,
  "map": {"n": [9], "k": [3]},
  "seeds": [1, 2, 3, 4, 5],
  "escalate": {"max_seeds": 9, "step": 2}
}"#;

/// The committed band spec: adds the n=13 continuation point, whose
/// bisection trips escalation mid-map (not just on its final probe) —
/// which is what makes the kill/resume test able to capture a recorded
/// escalation event inside the interrupt window.
const CONTINUED: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one-rand",
               "target": 1, "beta": "1", "rounds": 16000, "probe_cap": 2000},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.0005,
  "map": {"n": [9, 13], "k": [3]},
  "seeds": [1, 2, 3, 4, 5],
  "escalate": {"max_seeds": 9, "step": 2},
  "continuation": "n"
}"#;

fn run(spec: &FrontierSpec, threads: usize) -> (String, FrontierSummary) {
    let mut sink = CsvMapSink::new(Vec::new());
    let summary =
        Frontier::new().threads(threads).run_into(spec, &Registry, &mut sink, None).unwrap();
    (String::from_utf8(sink.into_inner()).unwrap(), summary)
}

fn band_fields(row: &str) -> (f64, f64, f64, f64) {
    let fields: Vec<&str> = row.split(',').collect();
    assert_eq!(fields.len(), 11, "ensemble rows carry band_lo,band_hi,agreement: {row}");
    let f = |i: usize| fields[i].parse::<f64>().unwrap();
    (f(5), f(8), f(9), f(10)) // boundary, band_lo, band_hi, agreement
}

#[test]
fn identical_seed_ensemble_bands_are_degenerate_and_project_to_the_solo_map() {
    let template = r#"{
      "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
                   "target": 1, "beta": "1", "rounds": 8000, "probe_cap": 800, "seed": 7},
      "axis": "rho", "lo": "0.5 * group_share", "hi": "1.25 * k_cycle_threshold",
      "tol": 0.0625, "map": {"n": [9], "k": [3]}SEEDS
    }"#;
    let solo = FrontierSpec::parse(&template.replace("SEEDS", "")).unwrap();
    let ensemble =
        FrontierSpec::parse(&template.replace("SEEDS", ", \"seeds\": [7, 7, 7, 7]")).unwrap();

    let (solo_map, _) = run(&solo, 1);
    let (ensemble_map, _) = run(&ensemble, 1);
    for (solo_line, band_line) in solo_map.lines().zip(ensemble_map.lines()) {
        let fields: Vec<&str> = band_line.split(',').collect();
        assert_eq!(fields[..8].join(","), solo_line, "legacy columns must match the solo map");
    }
    for row in ensemble_map.lines().skip(1) {
        let (boundary, lo, hi, agreement) = band_fields(row);
        assert_eq!(lo, boundary, "identical lanes cannot produce a band: {row}");
        assert_eq!(hi, boundary, "identical lanes cannot produce a band: {row}");
        assert_eq!(agreement, 1.0, "identical lanes agree exactly: {row}");
    }
}

#[test]
fn disagreeing_ensemble_produces_a_nonempty_band_with_escalation() {
    let spec = FrontierSpec::parse(DISAGREEING).unwrap();
    let (map, summary) = run(&spec, 2);
    assert_eq!(summary.completed, 1);
    assert!(
        summary.escalated_probes > 0,
        "near-boundary probes must trip escalation ({} probes, 0 escalated)",
        summary.probes_run
    );

    let row = map.lines().nth(1).unwrap();
    let (boundary, lo, hi, agreement) = band_fields(row);
    assert!(lo < hi, "straddling seeds must leave a nonempty band: {row}");
    assert!(lo <= boundary && boundary <= hi, "band must bracket the boundary: {row}");
    assert!(agreement < 1.0, "a nonempty band implies imperfect agreement: {row}");
    assert!(agreement > 0.5, "the majority verdict still dominates: {row}");
    // The drift window sits on the group share 1/5, well below the
    // claimed (k-1)/(n-1) = 1/4 — the band-level form of the headline
    // reproduction finding.
    assert!(lo <= 0.2 && 0.2 <= hi, "band must contain 1/l = 0.2: {row}");
    assert!(hi < 0.25, "band must exclude the claimed 1/4 region: {row}");
}

#[test]
fn band_maps_are_byte_identical_across_thread_counts() {
    let spec = FrontierSpec::parse(DISAGREEING).unwrap();
    let (serial, _) = run(&spec, 1);
    assert_eq!(serial, run(&spec, 4).0, "band map must not depend on the thread count");
}

#[test]
fn killed_band_map_resumes_by_replaying_escalation_events_byte_identically() {
    let spec = FrontierSpec::parse(CONTINUED).unwrap();
    let (uninterrupted, fresh) = run(&spec, 2);

    let dir = std::env::temp_dir().join(format!("emac-frontier-bands-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("frontier.ckpt");
    let digest = spec.digest("csv");
    let points = spec.points().len();

    // Phase 1: kill after 17 waves — past the n=9 row (so the resume
    // exercises the row-appending path) and past the first escalated
    // probe of the n=13 continuation point, but mid-bisection.
    let mut ckpt = FrontierCheckpoint::fresh(&ckpt_path, digest, points).unwrap();
    let mut sink = CsvMapSink::new(Vec::new());
    let partial = Frontier::new()
        .threads(2)
        .max_waves(17)
        .run_into(&spec, &Registry, &mut sink, Some(&mut ckpt))
        .unwrap();
    assert!(partial.completed < points, "17 waves cannot finish both tol-0.0005 bisections");
    let part1 = String::from_utf8(sink.into_inner()).unwrap();
    let rows_done = ckpt.rows_written();
    drop(ckpt);

    // The checkpoint must carry the ensemble tallies: every probe of an
    // ensemble map records its (diverging, lanes) split, and escalated
    // probes record the widened lane count.
    let mut ckpt = FrontierCheckpoint::resume(&ckpt_path, digest, points).unwrap();
    let probes_before_resume = ckpt.probes().len();
    assert!(probes_before_resume > 0);
    for rec in ckpt.probes() {
        let (diverging, lanes) = rec.lanes.expect("ensemble probes record lane tallies");
        assert!(diverging <= lanes);
        assert!(lanes >= spec.seeds.len(), "lanes can only grow from the base ensemble");
        assert!(lanes <= 9, "escalation must respect max_seeds");
    }
    let escalated = ckpt.probes().iter().filter(|r| r.lanes.unwrap().1 > spec.seeds.len()).count();
    assert!(escalated > 0, "the kill window must capture at least one escalation event");

    // Phase 2: resume — replay, don't re-run.
    let mut sink =
        if rows_done > 0 { CsvMapSink::appending(Vec::new()) } else { CsvMapSink::new(Vec::new()) };
    let resumed =
        Frontier::new().threads(2).run_into(&spec, &Registry, &mut sink, Some(&mut ckpt)).unwrap();
    assert_eq!(resumed.completed, points);
    let part2 = String::from_utf8(sink.into_inner()).unwrap();

    let stitched = if rows_done > 0 {
        format!("{part1}{part2}")
    } else {
        assert!(part1.is_empty());
        part2
    };
    assert_eq!(stitched, uninterrupted, "resume must reproduce the uninterrupted bytes");

    // Replay conservation: both phases together do exactly one run's work.
    assert_eq!(
        probes_before_resume + resumed.probes_run,
        fresh.probes_run,
        "no probe re-executed, none skipped"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A registry delegate that logs every lane it builds, in build order.
#[derive(Default)]
struct LaneLog(Mutex<Vec<ScenarioSpec>>);

impl ScenarioFactory for LaneLog {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        self.0.lock().unwrap().push(spec.clone());
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

/// Four map points probed side by side (no continuation), so several
/// probes are in flight at once and the lanes escalation adds must jump
/// the queue to keep one worker's lanes in probe order.
const SIDE_BY_SIDE: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "uniform",
               "rounds": 2000, "probe_cap": 1000},
  "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.03125,
  "map": {"n": [6, 9], "k": [3, 4]},
  "seeds": [1, 2, 3],
  "escalate": {"max_seeds": 5, "step": 1}
}"#;

#[test]
fn escalation_builds_every_lane_exactly_once() {
    let dir = std::env::temp_dir().join(format!("emac-frontier-lanes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (tag, text) in [("band", CONTINUED), ("side-by-side", SIDE_BY_SIDE)] {
        let spec = FrontierSpec::parse(text).unwrap();
        let run = |threads: usize| {
            let path = dir.join(format!("{tag}-{threads}.ckpt"));
            let mut ckpt =
                FrontierCheckpoint::fresh(&path, spec.digest("csv"), spec.points().len()).unwrap();
            let log = LaneLog::default();
            let mut sink = CsvMapSink::new(Vec::new());
            Frontier::new()
                .threads(threads)
                .run_into(&spec, &log, &mut sink, Some(&mut ckpt))
                .unwrap();
            (log.0.into_inner().unwrap(), ckpt.probes().to_vec())
        };
        let (serial, probes) = run(1);
        let tallies: Vec<(usize, usize)> =
            probes.iter().map(|p| p.lanes.expect("ensemble probes record lane tallies")).collect();
        assert!(
            tallies.iter().any(|&(_, lanes)| lanes > spec.seeds.len()),
            "{tag}: the spec must escalate some probe"
        );
        let final_lanes: usize = tallies.iter().map(|&(_, lanes)| lanes).sum();
        assert_eq!(serial.len(), final_lanes, "{tag}: every lane is built once, none re-run");

        // Points' probes interleave by timing at 4 workers, so the records
        // are compared point by point.
        let (parallel, parallel_probes) = run(4);
        for point in 0..spec.points().len() {
            let of = |records: &[ProbeRecord]| -> Vec<ProbeRecord> {
                records.iter().filter(|rec| rec.point == point).copied().collect()
            };
            assert_eq!(
                of(&parallel_probes),
                of(&probes),
                "{tag}: point {point}'s probe records must not depend on threads"
            );
        }
        assert_eq!(parallel_probes.len(), probes.len(), "{tag}: no probe record out of place");
        assert_eq!(
            parallel.len(),
            serial.len(),
            "{tag}: the lane count must not depend on threads"
        );

        // One worker runs lanes probe by probe, in checkpoint order: the
        // base seeds, then the fresh seeds escalation adds past the largest.
        let top = spec.seeds.iter().copied().max().unwrap();
        let points = spec.points();
        let mut lanes = serial.iter();
        for (rec, &(_, count)) in probes.iter().zip(&tallies) {
            let run: Vec<&ScenarioSpec> = lanes.by_ref().take(count).collect();
            let seeds: Vec<u64> = run.iter().map(|lane| lane.seed).collect();
            let expected: Vec<u64> =
                spec.seeds.iter().copied().chain(top + 1..).take(count).collect();
            assert_eq!(seeds, expected, "{tag}: a probe of point {} ran out of order", rec.point);
            let point = points[rec.point];
            let probe = |lane: &ScenarioSpec| ScenarioSpec { seed: 0, ..lane.clone() };
            for lane in &run {
                assert_eq!((lane.n, lane.k), (point.n, point.k), "{tag}: lane off its point");
                assert_eq!(probe(lane), probe(run[0]), "{tag}: a probe's lanes are one run");
            }
        }
        assert!(lanes.next().is_none(), "{tag}: every lane belongs to a recorded probe");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
