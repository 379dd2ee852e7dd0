//! Streaming-pipeline tests: the constant-memory sinks write the same
//! bytes at every thread count, the commit stage's reorder window bounds
//! in-flight reports to `THREADS + K` whatever the campaign's width, and
//! `Slim` metrics detail changes no scalar.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use emac_adversary::{SingleTarget, UniformRandom};
use emac_core::campaign::{
    Campaign, CsvStreamSink, FnSink, JsonLinesSink, MetricsDetail, ResultSink, ScenarioFactory,
    ScenarioRun, ScenarioSpec,
};
use emac_core::prelude::*;
use emac_sim::{Adversary, OnSchedule, Rate};

/// `K` of `Campaign::run_subset`'s docs: the commit block, which is also
/// the reorder window's slack beyond one started scenario per worker.
const COMMIT_BLOCK: usize = 8;

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
        _schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        Ok(match spec.adversary.as_str() {
            "uniform" => Box::new(UniformRandom::new(spec.seed)),
            "single-target" => Box::new(SingleTarget::new(0, spec.n - 1)),
            other => return Err(format!("unknown adversary {other:?}")),
        })
    }
}

/// A ≥200-scenario mixed grid, including two scenarios that fail to run
/// (unknown algorithm; invalid n), so error rows stream too.
fn mixed_sweep() -> Vec<ScenarioSpec> {
    let mut specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(256))
        .algorithms(["count-hop", "orchestra"])
        .adversaries(["uniform", "single-target"])
        .ns([4, 5, 6])
        .rhos([Rate::new(1, 2), Rate::new(3, 4)])
        .betas([Rate::integer(1), Rate::new(3, 2)])
        .seeds([1, 2, 3, 4, 5])
        .expand();
    assert!(specs.len() >= 200, "differential grid must stay ≥200 scenarios");
    specs.push(ScenarioSpec::new("nope", "uniform").rounds(16));
    let mut bad_n = ScenarioSpec::new("count-hop", "uniform");
    bad_n.n = 1;
    specs.push(bad_n);
    specs
}

/// The CSV and JSON Lines bytes the streaming sinks write while
/// `campaign` runs `specs`.
fn streamed(campaign: &Campaign, specs: &[ScenarioSpec]) -> (String, String) {
    let mut csv = CsvStreamSink::new(Vec::new());
    campaign.run_into(specs, &TestFactory, &mut csv).unwrap();
    let mut jsonl = JsonLinesSink::new(Vec::new());
    campaign.run_into(specs, &TestFactory, &mut jsonl).unwrap();
    (String::from_utf8(csv.into_inner()).unwrap(), String::from_utf8(jsonl.into_inner()).unwrap())
}

/// The bytes a streaming sink writes while the campaign runs are the same
/// at every thread count, error rows included.
#[test]
fn stream_bytes_are_identical_across_thread_counts() {
    let specs = mixed_sweep();
    let (csv, jsonl) = streamed(&Campaign::new().threads(1), &specs);
    assert_eq!(csv.lines().count(), specs.len() + 1, "a header and one row per scenario");
    assert_eq!(jsonl.lines().count(), specs.len());
    assert_eq!(jsonl.matches("\"error\":").count(), 2, "both failing scenarios stream");
    for threads in [4usize, 8] {
        let (c, j) = streamed(&Campaign::new().threads(threads), &specs);
        assert_eq!(c, csv, "{threads} threads changed the CSV bytes");
        assert_eq!(j, jsonl, "{threads} threads changed the JSONL bytes");
    }
}

/// Factory instrumented to gauge how many scenarios have started but not
/// yet been accepted by the sink — every started scenario materializes at
/// most one `RunReport`, so this bounds reports in flight.
struct GaugeFactory {
    started: AtomicUsize,
    accepted: Arc<AtomicUsize>,
    max_in_flight: AtomicUsize,
}

impl ScenarioFactory for GaugeFactory {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        let started = self.started.fetch_add(1, Ordering::SeqCst) + 1;
        let in_flight = started - self.accepted.load(Ordering::SeqCst);
        self.max_in_flight.fetch_max(in_flight, Ordering::SeqCst);
        TestFactory.algorithm(spec)
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        TestFactory.adversary(spec, schedule)
    }
}

/// A sink slow enough to make eager workers pile up — if they could.
struct SlowSink {
    accepted: Arc<AtomicUsize>,
}

impl ResultSink for SlowSink {
    fn accept(&mut self, _index: usize, _run: ScenarioRun) -> Result<(), String> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        self.accepted.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// The constant-memory guarantee: the reorder window lets a worker start
/// `todo` position `p` only while `p < a + THREADS + K` (`a` rows
/// accepted), so at most `THREADS + K` scenarios are ever started but
/// unaccepted, even behind a slow sink — peak memory is
/// O(workers + block), independent of campaign width.
#[test]
fn sink_path_holds_at_most_threads_plus_block_reports() {
    const THREADS: usize = 4;
    let specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(200))
        .ns([4])
        .seeds((1..=48).collect::<Vec<u64>>())
        .expand();
    let accepted = Arc::new(AtomicUsize::new(0));
    let factory = GaugeFactory {
        started: AtomicUsize::new(0),
        accepted: accepted.clone(),
        max_in_flight: AtomicUsize::new(0),
    };
    let mut sink = SlowSink { accepted };
    Campaign::new().threads(THREADS).run_into(&specs, &factory, &mut sink).unwrap();
    assert_eq!(factory.started.load(Ordering::SeqCst), specs.len());
    let max = factory.max_in_flight.load(Ordering::SeqCst);
    assert!(
        max <= THREADS + COMMIT_BLOCK,
        "{max} scenarios in flight with {THREADS} workers and a {COMMIT_BLOCK}-row block — \
         the sink path buffered reports beyond the window"
    );
}

/// `Slim` detail drops only the bulky series: every scalar column is
/// untouched, so the CSV export is byte-identical to `Full`, while the
/// JSONL export sheds its `queue_series` / `delay_log2_buckets` arrays.
#[test]
fn slim_detail_preserves_every_scalar_and_drops_series() {
    let specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(2_000))
        .algorithms(["count-hop", "orchestra"])
        .ns([4, 6])
        .rhos([Rate::new(1, 2)])
        .seeds([1, 2])
        .expand();
    let full = Campaign::new().threads(2);
    let slim = Campaign::new().threads(2).detail(MetricsDetail::Slim);
    let (full_csv, full_jsonl) = streamed(&full, &specs);
    let (slim_csv, slim_jsonl) = streamed(&slim, &specs);

    assert_eq!(full_csv, slim_csv, "Slim changed a scalar CSV column");

    assert!(full_jsonl.contains("queue_series"));
    assert!(full_jsonl.contains("delay_log2_buckets"));
    assert!(!slim_jsonl.contains("queue_series"));
    assert!(!slim_jsonl.contains("delay_log2_buckets"));

    let (full, slim) = (full.run(&specs, &TestFactory), slim.run(&specs, &TestFactory));
    for (f, s) in full.reports().zip(slim.reports()) {
        assert_eq!(f.metrics.injected, s.metrics.injected);
        assert_eq!(f.metrics.delivered, s.metrics.delivered);
        assert_eq!(f.latency(), s.latency());
        assert_eq!(f.metrics.delay.mean(), s.metrics.delay.mean());
        assert_eq!(f.max_queue(), s.max_queue());
        assert_eq!(f.metrics.energy_total, s.metrics.energy_total);
        assert_eq!(f.stability.slope, s.stability.slope);
        assert_eq!(f.stability.verdict, s.stability.verdict);
        assert!(!f.metrics.queue_series.is_empty(), "Full keeps the series");
        assert!(s.metrics.queue_series.is_empty(), "Slim drops the series");
    }
}

/// Manual scale check (ignored by default — run with `--ignored
/// --release`): a 10⁴-scenario slim streaming campaign completes with at
/// most `THREADS + K` reports in flight. The window bound above is the
/// invariant that makes this memory-flat; this smoke proves the pipeline
/// actually sustains that width end to end.
#[test]
#[ignore = "scale smoke; run explicitly with --ignored"]
fn ten_thousand_scenario_slim_campaign_streams_within_the_window() {
    const THREADS: usize = 8;
    let specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(64))
        .ns([4, 5])
        .rhos([Rate::new(1, 2)])
        .seeds((1..=5_000).collect::<Vec<u64>>())
        .expand();
    assert_eq!(specs.len(), 10_000);
    let accepted = Arc::new(AtomicUsize::new(0));
    let factory = GaugeFactory {
        started: AtomicUsize::new(0),
        accepted: accepted.clone(),
        max_in_flight: AtomicUsize::new(0),
    };
    struct Count {
        accepted: Arc<AtomicUsize>,
        rows: usize,
    }
    impl ResultSink for Count {
        fn accept(&mut self, _index: usize, run: ScenarioRun) -> Result<(), String> {
            assert!(
                run.outcome.as_ref().is_ok_and(|r| r.metrics.queue_series.is_empty()),
                "slim campaign leaked a queue series"
            );
            self.accepted.fetch_add(1, Ordering::SeqCst);
            self.rows += 1;
            Ok(())
        }
    }
    let mut sink = Count { accepted, rows: 0 };
    Campaign::new()
        .threads(THREADS)
        .detail(MetricsDetail::Slim)
        .run_into(&specs, &factory, &mut sink)
        .unwrap();
    assert_eq!(sink.rows, 10_000);
    assert!(factory.max_in_flight.load(Ordering::SeqCst) <= THREADS + COMMIT_BLOCK);
}

/// A sink error aborts the campaign, surfaces the error, and stops
/// dispatching new scenarios.
#[test]
fn sink_error_aborts_campaign() {
    struct Failing {
        accepted: usize,
    }
    impl ResultSink for Failing {
        fn accept(&mut self, _index: usize, _run: ScenarioRun) -> Result<(), String> {
            if self.accepted == 3 {
                return Err("disk full (simulated)".into());
            }
            self.accepted += 1;
            Ok(())
        }
    }
    let specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(100))
        .ns([4])
        .seeds((1..=24).collect::<Vec<u64>>())
        .expand();
    let mut sink = Failing { accepted: 0 };
    let err = Campaign::new().threads(4).run_into(&specs, &TestFactory, &mut sink).unwrap_err();
    assert!(err.contains("disk full"), "{err}");
    assert_eq!(sink.accepted, 3, "nothing accepted after the failure");
}

/// `run_subset` rejects indices beyond the spec list instead of
/// panicking a worker.
#[test]
fn run_subset_validates_indices() {
    let specs = Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(50)).ns([4]).expand();
    let mut sink = FnSink(|_, _| Ok(()));
    let err =
        Campaign::new().run_subset(&specs, &[0, 7], &TestFactory, &mut sink, None).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
}
