//! Observability-determinism suite: arming the event log and progress
//! line changes **zero** output bytes.
//!
//! Every case drives the real `emac` binary twice over the same spec —
//! once disarmed, once with `--progress --events` — and diffs the
//! output bytes. The registry-wide campaign grid must additionally still
//! digest to the pinned golden, so observability is provably outside the
//! digest path. Event logs themselves are held to the same standard as
//! the outputs: every line must round-trip through the minimal JSON
//! parser (`ObsReport::ingest` rejects malformed lines), probe counts
//! must exactly match what the run's checkpoint recorded (probe
//! conservation), and wall-clock readings must stay confined to
//! `wall_`-prefixed keys of the event log — the output rows carry none.
//! Frontier events are also held to what the run did: `Row` rounds sum
//! to the rounds simulated, and `Probe` times are worker-measured.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use emac::registry::Registry;
use emac_core::campaign::{ScenarioFactory, ScenarioSpec};
use emac_core::digest::Fnv64;
use emac_core::frontier::{CsvMapSink, Frontier, FrontierSpec};
use emac_core::obs::{EventLog, ObsEvent, ObsReport, Observer};
use emac_core::Algorithm;
use emac_sim::{Adversary, Injection, OnSchedule, Round, SystemView};

fn emac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_emac"))
}

fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", Fnv64::new().bytes(bytes).finish())
}

/// A fresh scratch directory per test case.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-obs-det-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `emac <cmd> <spec> --format <format> --out <out_dir> [extra...]`
/// and return the output-file bytes. Exit status is not asserted:
/// duty-cycle scenarios violate invariants by design and exit non-zero,
/// by contract.
fn run_to_bytes(cmd: &str, spec: &Path, format: &str, out_dir: &Path, extra: &[&str]) -> Vec<u8> {
    let out = emac()
        .args([cmd, spec.to_str().unwrap(), "--format", format, "--out"])
        .arg(out_dir)
        .args(extra)
        .output()
        .unwrap();
    let out_path = out_dir.join(format!("{cmd}.{format}"));
    assert!(
        out_path.is_file(),
        "{cmd} must produce {}: {}",
        out_path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&out_path).unwrap()
}

/// Ingest one event log, asserting every line parses.
fn ingest(path: &Path) -> ObsReport {
    let text = std::fs::read_to_string(path).unwrap();
    let mut report = ObsReport::default();
    report.ingest(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    report
}

/// Kept verbatim in sync with `CAMPAIGN_CSV_GOLDEN` in
/// `tests/golden_determinism.rs`: the registry-wide campaign grid.
const CAMPAIGN_CSV_GOLDEN: &str = "3b17903468572632";

const GOLDEN_GRID_SPEC: &str = r#"{
  "grids": [
    {"algorithms": ["orchestra", "orchestra-nomb", "count-hop", "adjust-window",
                    "k-cycle", "k-cycle:1/2", "k-clique", "k-subsets",
                    "k-subsets-rrw", "duty-cycle"],
     "adversaries": ["uniform", "round-robin"],
     "n": [8], "k": [4], "rho": ["1/8"], "beta": ["1"],
     "rounds": 2048, "seeds": [7]}
  ]
}"#;

/// A cheap 4-point boundary map (no ensemble, no continuation).
const MAP_SPEC: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "uniform",
               "rounds": 2000, "probe_cap": 1000},
  "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.01,
  "map": {"n": [6, 9], "k": [2, 3]}
}"#;

/// [`MAP_SPEC`] as a 3-seed ensemble escalating to 5 lanes (the CI
/// band-map smoke spec).
const ENSEMBLE_MAP_SPEC: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "uniform",
               "rounds": 2000, "probe_cap": 1000},
  "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.03125,
  "map": {"n": [6, 9], "k": [3, 4]},
  "seeds": [1, 2, 3], "escalate": {"max_seeds": 5, "step": 1}
}"#;

/// Mixed 8-scenario campaign with a fault plan, for the JSONL shape
/// checks: full-detail rows may carry fault telemetry, never wall clocks.
const JSONL_SPEC: &str = r#"{
  "scenarios": [
    {"label": "jammed", "algorithm": "k-cycle", "adversary": "uniform",
     "n": 8, "k": 3, "rho": "1/8", "rounds": 1024, "seed": 4,
     "faults": {"jam": "1/10", "seed": 9}}
  ],
  "grids": [
    {"algorithms": ["k-cycle", "count-hop"], "adversaries": ["uniform"],
     "n": [6, 8], "k": [3], "rho": ["1/8"], "beta": ["1"],
     "rounds": 1024, "seeds": [5, 6]}
  ]
}"#;

#[test]
fn armed_campaign_bytes_match_disarmed_and_the_pinned_golden() {
    let dir = scratch("campaign");
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GOLDEN_GRID_SPEC).unwrap();

    let disarmed = run_to_bytes("campaign", &spec, "csv", &dir.join("off"), &[]);
    let events = dir.join("events.jsonl");
    let armed = run_to_bytes(
        "campaign",
        &spec,
        "csv",
        &dir.join("on"),
        &["--progress", "--events", events.to_str().unwrap()],
    );
    assert_eq!(armed, disarmed, "arming observability must not change one output byte");
    assert_eq!(
        fnv_hex(&armed),
        CAMPAIGN_CSV_GOLDEN,
        "armed registry grid must still digest to the pinned campaign CSV golden"
    );

    // Probe conservation, campaign form: one Row event per output row,
    // and the checkpoint agrees.
    let report = ingest(&events);
    let data_rows = disarmed.iter().filter(|&&b| b == b'\n').count() - 1;
    assert_eq!(report.rows as usize, data_rows, "one Row event per CSV data row");
    let ckpt = std::fs::read_to_string(dir.join("on/campaign.ckpt")).unwrap();
    let done_lines = ckpt.lines().filter(|l| l.starts_with("done ")).count();
    assert_eq!(report.rows as usize, done_lines, "Row events must match checkpointed rows");
    assert_eq!(report.runs_finished, 1, "exactly one RunFinished event");
    assert!(report.fsyncs > 0, "checkpointed rows must have timed fsync barriers");
    assert!(report.rounds > 0, "RunFinished must carry the simulated round total");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn armed_frontier_bytes_match_disarmed_and_probes_are_conserved() {
    let dir = scratch("frontier");
    let spec = dir.join("map.json");
    std::fs::write(&spec, MAP_SPEC).unwrap();

    let disarmed = run_to_bytes("frontier", &spec, "csv", &dir.join("off"), &[]);
    let events = dir.join("events.jsonl");
    let armed = run_to_bytes(
        "frontier",
        &spec,
        "csv",
        &dir.join("on"),
        &["--progress", "--events", events.to_str().unwrap()],
    );
    assert_eq!(armed, disarmed, "arming observability must not change one output byte");

    // Probe conservation: the event log and the checkpoint saw the very
    // same probes, and every map point produced a Row event.
    let report = ingest(&events);
    let ckpt = std::fs::read_to_string(dir.join("on/frontier.ckpt")).unwrap();
    let ckpt_probes = ckpt.lines().filter(|l| l.starts_with("probe ")).count();
    let ckpt_rows = ckpt.lines().filter(|l| l.starts_with("row ")).count();
    assert_eq!(report.probes as usize, ckpt_probes, "Probe events must match the checkpoint");
    assert_eq!(report.rows, 4, "one Row event per map point");
    assert_eq!(
        report.fsyncs as usize,
        ckpt_probes + ckpt_rows,
        "every checkpoint append, probe or row, is one timed Fsync event"
    );
    assert_eq!(report.runs_finished, 1, "exactly one RunFinished event");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_clock_stays_in_the_event_log_and_out_of_output_rows() {
    let dir = scratch("wall");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, JSONL_SPEC).unwrap();

    let disarmed = run_to_bytes("campaign", &spec, "jsonl", &dir.join("off"), &[]);
    let events = dir.join("events.jsonl");
    let armed = run_to_bytes(
        "campaign",
        &spec,
        "jsonl",
        &dir.join("on"),
        &["--events", events.to_str().unwrap()],
    );
    assert_eq!(armed, disarmed, "arming the event log must not change one output byte");

    let rows = String::from_utf8(armed).unwrap();
    assert!(
        !rows.contains("wall_"),
        "output rows must never carry wall-clock fields — those belong to the event log"
    );
    assert!(
        rows.contains("jammed_rounds"),
        "full-detail rows of a faulted scenario must carry fault telemetry"
    );
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.contains("\"wall_us\""), "the event log is where wall clocks live");
    ingest(&events);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_fleet_with_obs_merges_to_single_process_bytes() {
    let dir = scratch("fleet");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, JSONL_SPEC).unwrap();
    let reference = run_to_bytes("campaign", &spec, "csv", &dir.join("single"), &[]);

    let fleet = dir.join("fleet");
    let plan = emac()
        .args(["shard", "plan", spec.to_str().unwrap(), "--dir"])
        .arg(&fleet)
        .args(["--shards", "2", "--format", "csv"])
        .output()
        .unwrap();
    assert!(plan.status.success(), "plan: {}", String::from_utf8_lossy(&plan.stderr));
    for shard in ["0", "1"] {
        let run = emac()
            .args(["shard", "run", spec.to_str().unwrap(), "--dir"])
            .arg(&fleet)
            .args(["--shard", shard, "--progress"])
            .output()
            .unwrap();
        assert!(run.status.success(), "shard {shard}: {}", String::from_utf8_lossy(&run.stderr));
    }
    let merged = fleet.join("merged.csv");
    let out = emac()
        .args(["shard", "merge", "--dir"])
        .arg(&fleet)
        .args(["--out"])
        .arg(&merged)
        .output()
        .unwrap();
    assert!(out.status.success(), "merge: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        reference,
        "merged fleet bytes must be identical to single-process despite per-shard event logs"
    );

    // Each shard's always-on event log parses, and together they conserve
    // the fleet's rows.
    let mut fleet_rows = 0;
    for shard in 0..2usize {
        let report = ingest(&fleet.join(format!("shard-{shard}/events.jsonl")));
        assert_eq!(report.runs_finished, 1, "shard {shard} must log RunStarted/RunFinished");
        fleet_rows += report.rows;
    }
    let data_rows = reference.iter().filter(|&&b| b == b'\n').count() - 1;
    assert_eq!(fleet_rows as usize, data_rows, "fleet event logs must conserve total rows");

    // `emac obs report` aggregates the whole fleet's logs into one view
    // (shard 0 launched first, so it claimed — and stole — real work).
    let report = emac()
        .args(["obs", "report"])
        .arg(fleet.join("shard-0/events.jsonl"))
        .arg(fleet.join("shard-1/events.jsonl"))
        .output()
        .unwrap();
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let text = String::from_utf8(report.stdout).unwrap();
    assert!(text.contains("event(s)") && text.contains("shard 0:"), "report: {text}");

    // `emac shard status` is enriched from the logs...
    let status = emac().args(["shard", "status", "--dir"]).arg(&fleet).output().unwrap();
    assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
    let text = String::from_utf8(status.stdout).unwrap();
    assert!(text.contains("row(s)/"), "status must surface per-shard event activity: {text}");

    // ...and degrades explicitly, not fatally, when a log goes missing.
    std::fs::remove_file(fleet.join("shard-0/events.jsonl")).unwrap();
    let status = emac().args(["shard", "status", "--dir"]).arg(&fleet).output().unwrap();
    assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
    let text = String::from_utf8(status.stdout).unwrap();
    assert!(
        text.contains("no event log; claim-table view only"),
        "status must name the shard whose log is unreadable: {text}"
    );

    // Malformed event lines are an error, not noise to skip.

    let bad = fleet.join("bad.jsonl");
    std::fs::write(&bad, "{\"ev\":\"nope\"}\n").unwrap();
    let report = emac().args(["obs", "report"]).arg(&bad).output().unwrap();
    assert!(!report.status.success(), "malformed event lines must be an error, not noise");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A registry delegate counting adversary planning calls: one per
/// simulated round while injections are on, and frontier probes never
/// drain.
#[derive(Default)]
struct RoundCounter(Arc<AtomicU64>);

impl ScenarioFactory for RoundCounter {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        Registry::make_algorithm(spec)
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        let inner = Registry::make_adversary(spec, schedule)?;
        Ok(Box::new(CountedAdversary { inner, rounds: Arc::clone(&self.0) }))
    }
}

struct CountedAdversary {
    inner: Box<dyn Adversary>,
    rounds: Arc<AtomicU64>,
}

impl Adversary for CountedAdversary {
    fn plan_into(
        &mut self,
        round: Round,
        budget: usize,
        view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        self.rounds.fetch_add(1, Relaxed);
        self.inner.plan_into(round, budget, view, out);
    }
}

/// Run a map through the library with an armed event log. Returns the
/// CSV bytes, the logged events, and the run's wall time in µs.
fn observed_map(
    spec: &FrontierSpec,
    factory: &(impl ScenarioFactory + Sync),
    threads: usize,
    log: &Path,
) -> (Vec<u8>, Vec<ObsEvent>, u64) {
    let mut observer = Observer::new().with_log(EventLog::create(log).unwrap());
    let mut sink = CsvMapSink::new(Vec::new());
    let started = Instant::now();
    Frontier::new()
        .threads(threads)
        .run_into_observed(spec, factory, &mut sink, None, &mut observer)
        .unwrap();
    let wall_us = started.elapsed().as_micros() as u64;
    observer.flush().unwrap();
    let events = std::fs::read_to_string(log)
        .unwrap()
        .lines()
        .map(|line| ObsEvent::parse_line(line).unwrap())
        .collect();
    (sink.into_inner(), events, wall_us)
}

#[test]
fn frontier_row_rounds_sum_to_the_rounds_simulated() {
    let dir = scratch("row-rounds");
    for (tag, text) in [("solo", MAP_SPEC), ("ensemble", ENSEMBLE_MAP_SPEC)] {
        let spec = FrontierSpec::parse(text).unwrap();
        let counter = RoundCounter::default();
        let (armed, events, _) =
            observed_map(&spec, &counter, 2, &dir.join(format!("{tag}.jsonl")));
        let row_rounds: u64 = events
            .iter()
            .map(|ev| match ev {
                ObsEvent::Row { rounds, .. } => *rounds,
                _ => 0,
            })
            .sum();
        let planned = counter.0.load(Relaxed);
        assert!(planned > 0, "{tag}: the map must simulate rounds");
        assert_eq!(row_rounds, planned, "{tag}: Row rounds must sum to the rounds simulated");
        if tag == "ensemble" {
            assert!(
                events.iter().any(|ev| matches!(ev, ObsEvent::Escalation { .. })),
                "{tag}: the map must escalate, so added lanes are counted too"
            );
        }

        let mut sink = CsvMapSink::new(Vec::new());
        Frontier::new().threads(2).run_into(&spec, &Registry, &mut sink, None).unwrap();
        assert_eq!(armed, sink.into_inner(), "{tag}: arming must not change one output byte");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solo_probe_events_carry_worker_measured_time() {
    let dir = scratch("probe-wall");
    let spec = FrontierSpec::parse(MAP_SPEC).unwrap();
    let (_, events, wall_us) = observed_map(&spec, &Registry, 1, &dir.join("events.jsonl"));
    let probe_us: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::Probe { wall_us, lanes, .. } => {
                assert_eq!(*lanes, 1, "a solo map probes one lane");
                Some(*wall_us)
            }
            _ => None,
        })
        .collect();
    assert!(!probe_us.is_empty(), "the map must log its probes");
    assert!(probe_us.iter().all(|&us| us > 0), "every probe is timed by its worker: {probe_us:?}");
    let total: u64 = probe_us.iter().sum();
    assert!(
        total <= wall_us,
        "one worker's probe times ({total} us) cannot exceed the map's wall time ({wall_us} us)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
