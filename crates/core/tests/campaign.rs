//! Integration tests of the campaign layer: spec serialization, grid
//! expansion, factory plumbing, and — the load-bearing one — that a
//! parallel campaign is byte-identical to the same scenarios run serially.

use std::sync::Arc;

use emac_adversary::{LeastOnStation, SingleTarget, UniformRandom};
use emac_core::campaign::{
    parse_campaign_spec, Campaign, CsvStreamSink, Grid, JsonLinesSink, ScenarioFactory,
    ScenarioSpec, TallySink,
};
use emac_core::prelude::*;
use emac_sim::{Adversary, OnSchedule, Rate};

/// A small test factory over the adversary crate (the production registry
/// lives in the facade crate, which this crate cannot depend on).
struct TestFactory;

impl ScenarioFactory for TestFactory {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        Ok(match spec.algorithm.as_str() {
            "count-hop" => Box::new(CountHop::new()),
            "orchestra" => Box::new(Orchestra::new()),
            "k-cycle" => Box::new(KCycle::new(spec.k)),
            other => return Err(format!("unknown algorithm {other:?}")),
        })
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        Ok(match spec.adversary.as_str() {
            "uniform" => Box::new(UniformRandom::new(spec.seed)),
            "single-target" => Box::new(SingleTarget::new(0, spec.n - 1)),
            "least-on" => {
                let s = schedule.ok_or("least-on needs an oblivious algorithm")?;
                Box::new(LeastOnStation::new(s, spec.n, spec.horizon.unwrap_or(1_000)))
            }
            other => return Err(format!("unknown adversary {other:?}")),
        })
    }
}

fn sweep() -> Vec<ScenarioSpec> {
    let mut specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(8_000).drain(8_000))
        .ns([4, 6])
        .rhos([Rate::new(1, 2), Rate::new(3, 4)])
        .seeds([1, 2])
        .expand();
    // heterogeneous tail: an oblivious algorithm under a schedule-aware
    // adversary, exercising the schedule hand-off on worker threads
    let mut attack = ScenarioSpec::new("k-cycle", "least-on");
    attack.n = 9;
    attack.k = 3;
    attack.rho = Rate::new(5, 12);
    attack.beta = Rate::integer(2);
    attack.rounds = 20_000;
    attack.horizon = Some(1_000);
    specs.push(attack);
    specs
}

/// The JSON Lines and CSV bytes the streaming sinks write for `specs` on
/// `threads` workers.
fn streamed(specs: &[ScenarioSpec], threads: usize) -> (String, String) {
    let campaign = Campaign::new().threads(threads);
    let mut jsonl = JsonLinesSink::new(Vec::new());
    campaign.run_into(specs, &TestFactory, &mut jsonl).unwrap();
    let mut csv = CsvStreamSink::new(Vec::new());
    campaign.run_into(specs, &TestFactory, &mut csv).unwrap();
    (String::from_utf8(jsonl.into_inner()).unwrap(), String::from_utf8(csv.into_inner()).unwrap())
}

/// The tentpole guarantee: a parallel campaign yields byte-identical
/// reports to the same scenarios run serially.
#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let specs = sweep();
    let (serial_jsonl, serial_csv) = streamed(&specs, 1);
    let (parallel_jsonl, parallel_csv) = streamed(&specs, 4);
    assert_eq!(serial_jsonl.lines().count(), specs.len());
    assert_eq!(serial_jsonl, parallel_jsonl, "parallel execution changed results");
    assert_eq!(serial_csv, parallel_csv);
    // and again in parallel for schedule-jitter flakes
    assert_eq!(streamed(&specs, 3).0, serial_jsonl);
}

#[test]
fn campaign_results_line_up_with_specs_in_order() {
    let specs = sweep();
    let result = Campaign::new().threads(4).run(&specs, &TestFactory);
    for (spec, run) in specs.iter().zip(&result.runs) {
        assert_eq!(&run.spec, spec);
        let report = run.outcome.as_ref().expect("sweep scenarios all run");
        assert_eq!(report.n, spec.n);
        assert_eq!(report.rho, spec.rho);
        assert_eq!(report.rounds, spec.rounds);
    }
    // the count-hop half of the sweep is in-regime: clean and drained
    for run in &result.runs[..8] {
        let report = run.outcome.as_ref().unwrap();
        assert!(report.clean(), "{}", report.violations);
        assert_eq!(report.drained, Some(true));
    }
    // the attack scenario diverges (rho = 5/12 > k/n = 1/3)
    let attack = result.runs.last().unwrap().outcome.as_ref().unwrap();
    assert_eq!(attack.stability.verdict, Verdict::Diverging);
}

#[test]
fn errors_are_contained_per_scenario() {
    let mut good = ScenarioSpec::new("count-hop", "uniform");
    good.n = 4;
    good.rounds = 2_000;
    let bad_alg = ScenarioSpec::new("nope", "uniform");
    let bad_adv = ScenarioSpec::new("count-hop", "least-on"); // adaptive: no schedule
    let mut bad_n = ScenarioSpec::new("count-hop", "uniform");
    bad_n.n = 1;
    let specs = vec![good, bad_alg, bad_adv, bad_n];
    let result = Campaign::new().threads(2).run(&specs, &TestFactory);
    assert!(result.runs[0].outcome.is_ok());
    assert!(result.runs[1].outcome.as_ref().is_err_and(|e| e.contains("unknown algorithm")));
    assert!(result.runs[2].outcome.as_ref().is_err_and(|e| e.contains("oblivious")));
    assert!(result.runs[3].outcome.as_ref().is_err_and(|e| e.contains("at least 2")));
    assert!(!result.all_clean());
    assert!(result.first_error().is_some());
    assert_eq!(result.reports().count(), 1);
    // the failures appear in the export rather than poisoning it
    let mut sink = TallySink::new(CsvStreamSink::new(Vec::new()));
    Campaign::new().threads(2).run_into(&specs, &TestFactory, &mut sink).unwrap();
    assert_eq!((sink.ok(), sink.unclean(), sink.failed()), (1, 0, 3));
    let csv = String::from_utf8(sink.into_inner().into_inner()).unwrap();
    assert_eq!(csv.lines().count(), 1 + 4);
    assert!(csv.contains("unknown algorithm"));
}

#[test]
fn grid_expansion_cardinality_and_json_round_trip() {
    let grid = Grid::new(ScenarioSpec::new("k-cycle", "uniform").rounds(1_000))
        .ns([6, 9, 12])
        .ks([3, 4])
        .rhos([Rate::new(1, 5), Rate::new(1, 4), Rate::new(1, 3)])
        .betas([Rate::integer(1), Rate::new(3, 2)])
        .seeds([1, 2, 3, 4]);
    assert_eq!(grid.cardinality(), 3 * 2 * 3 * 2 * 4);
    let specs = grid.expand();
    assert_eq!(specs.len(), grid.cardinality());
    // every spec distinct, every spec JSON-round-trips
    let mut seen = std::collections::HashSet::new();
    for spec in &specs {
        let json = spec.to_json().render();
        assert!(seen.insert(json.clone()), "duplicate spec {json}");
        let back = ScenarioSpec::from_json(&emac_core::campaign::json::Json::parse(&json).unwrap())
            .unwrap();
        assert_eq!(&back, spec);
    }
}

#[test]
fn campaign_spec_document_drives_execution() {
    let doc = r#"{
        "scenarios": [
            {"algorithm": "orchestra", "adversary": "single-target",
             "n": 4, "rho": "1", "beta": "2", "rounds": 5000}
        ],
        "grids": [
            {"algorithms": ["count-hop"], "adversaries": ["uniform"],
             "n": [4, 5], "rho": ["1/2"], "rounds": 5000, "seeds": [7]}
        ]
    }"#;
    let specs = parse_campaign_spec(doc).unwrap();
    assert_eq!(specs.len(), 3);
    let result = Campaign::new().threads(2).run(&specs, &TestFactory);
    assert!(result.all_clean(), "{:?}", result.first_error());
    // orchestra at rate 1 stays within the paper's queue bound
    let orchestra = result.runs[0].outcome.as_ref().unwrap();
    assert!(
        (orchestra.max_queue() as f64) <= bounds::orchestra_queue_bound(4, 2.0),
        "queue {} above bound",
        orchestra.max_queue()
    );
}
