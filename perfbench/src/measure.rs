//! Untraced iterations: one whole workload through the entry points the
//! `emac` CLI uses, timed from reading the spec text to the last durable
//! row, with real sinks, checkpoints, and fsync under a scratch directory.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use emac::registry::Registry;
use emac_core::campaign::{
    parse_campaign_spec, spec_list_digest, Campaign, Checkpoint, CsvStreamSink, DurableFile,
    JsonLinesSink, MetricsDetail, ResultSink, ScenarioRun, ScenarioSpec,
};
use emac_core::frontier::{CsvMapSink, Frontier, FrontierCheckpoint, FrontierSpec, MapSink};
use emac_core::{
    report_digest, EventLog, Fnv64, ObsEvent, ObsReport, ObservedSink, Observer, RunKind,
};

use crate::delegates::CountingFactory;
use crate::inputs::{CampaignJob, Format, FRONTIER_MAPS};

/// FNV-1a of a file's bytes.
pub fn file_digest(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Fnv64::new().bytes(&bytes).finish())
}

/// The checkpoint identity the CLI binds a streamed campaign to.
pub fn checkpoint_digest(specs: &[ScenarioSpec], format: Format, detail: MetricsDetail) -> u64 {
    let mut h = Fnv64::new();
    h.u64(spec_list_digest(specs));
    h.str(format.file_name());
    h.str(match detail {
        MetricsDetail::Full => "full",
        MetricsDetail::Slim => "slim",
    });
    h.finish()
}

/// Resolve every spec's algorithm through the registry once, so a bad
/// name fails before the first unit is dispatched.
fn warm_registry<'a>(specs: impl Iterator<Item = &'a ScenarioSpec>) -> Result<(), String> {
    for spec in specs {
        Registry::make_algorithm(spec)?;
    }
    Ok(())
}

/// The streaming sink for `format` over a durable output file.
pub fn campaign_sink(format: Format, file: File) -> Box<dyn ResultSink> {
    let out = DurableFile::new(file);
    match format {
        Format::Csv => Box::new(CsvStreamSink::new(out)),
        Format::JsonLines => Box::new(JsonLinesSink::new(out)),
    }
}

/// The durability barriers an executor reported in its event logs: each
/// `ObsEvent::Fsync`, with the wall time it measured around the barrier.
#[derive(Clone, Copy, Debug, Default)]
pub struct Barriers {
    pub count: u64,
    pub wall_s: f64,
}

/// Sum the `Fsync` events of the event logs at `paths`.
fn read_barriers(paths: &[PathBuf]) -> Result<Barriers, String> {
    let mut report = ObsReport::default();
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.ingest(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Barriers { count: report.fsyncs, wall_s: report.fsync_us.sum() as f64 * 1e-6 })
}

/// Counts units, failures, and simulated rounds on their way to the real
/// sink; optionally keeps each report's digest for the traced run.
struct Counted {
    inner: Box<dyn ResultSink>,
    units: u64,
    failed: u64,
    rounds: u64,
    digests: Option<Vec<u64>>,
}

impl ResultSink for Counted {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        self.units += 1;
        match &run.outcome {
            Ok(report) => {
                self.rounds += report.metrics.rounds;
                self.failed += u64::from(!report.clean());
            }
            Err(_) => self.failed += 1,
        }
        if let Some(d) = &mut self.digests {
            d.push(run.outcome.as_ref().map_or(0, report_digest));
        }
        self.inner.accept(index, run)
    }

    fn sync(&mut self) -> Result<(), String> {
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()
    }
}

/// What one campaign iteration did.
pub struct CampaignIter {
    pub wall_s: f64,
    pub setup_s: f64,
    pub units: u64,
    pub failed: u64,
    pub rounds: u64,
    pub output_digest: u64,
    /// Per-unit report digests, when requested.
    pub unit_digests: Vec<u64>,
    /// The executor's durability barriers; zero unless `events` was armed.
    pub barriers: Barriers,
}

/// Run `job` once into `dir` with `threads` workers. `events` arms an
/// `EventLog` observer through `ObservedSink`, as `emac campaign --events`
/// does.
pub fn campaign_iteration(
    job: &CampaignJob,
    dir: &Path,
    threads: usize,
    events: bool,
    keep_digests: bool,
) -> Result<CampaignIter, String> {
    let started = Instant::now();
    let text = job.source.read()?;
    let specs = parse_campaign_spec(&text)?;
    let digest = checkpoint_digest(&specs, job.format, job.detail);
    let mut ckpt = Checkpoint::fresh(&dir.join("campaign.ckpt"), digest, specs.len())?;
    let out_path = dir.join(job.format.file_name());
    let file = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let sink = Counted {
        inner: campaign_sink(job.format, file),
        units: 0,
        failed: 0,
        rounds: 0,
        digests: keep_digests.then(Vec::new),
    };
    warm_registry(specs.iter())?;
    let setup_s = started.elapsed().as_secs_f64();

    let todo = ckpt.remaining();
    let executor = Campaign::new().threads(threads).detail(job.detail);
    let events_path = dir.join("events.jsonl");
    let counted = if events {
        let log = EventLog::create(&events_path).map_err(|e| e.to_string())?;
        let obs = Mutex::new(Observer::new().with_log(log));
        obs.lock()
            .expect("observer poisoned")
            .record(&ObsEvent::RunStarted { kind: RunKind::Campaign, total: todo.len() as u64 });
        let mut sink = ObservedSink::new(sink, &obs);
        executor.run_subset(&specs, &todo, &Registry, &mut sink, Some(&mut ckpt))?;
        let counted = sink.into_inner();
        let mut observer = obs.into_inner().expect("observer poisoned");
        let rounds = observer.rounds_seen();
        observer.finish(&ObsEvent::RunFinished {
            kind: RunKind::Campaign,
            done: counted.units,
            wall_ms: started.elapsed().as_millis() as u64,
            rounds,
        })?;
        counted
    } else {
        let mut sink = sink;
        executor.run_subset(&specs, &todo, &Registry, &mut sink, Some(&mut ckpt))?;
        sink
    };
    let wall_s = started.elapsed().as_secs_f64();
    let barriers = if events { read_barriers(&[events_path])? } else { Barriers::default() };

    Ok(CampaignIter {
        wall_s,
        setup_s,
        units: counted.units,
        failed: counted.failed,
        rounds: counted.rounds,
        output_digest: file_digest(&out_path)?,
        unit_digests: counted.digests.unwrap_or_default(),
        barriers,
    })
}

/// What one pass over the frontier maps did.
pub struct FrontierIter {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Probes run (the frontier's units), summed over maps.
    pub probes: u64,
    pub unclean: u64,
    pub waves: u64,
    pub escalated: u64,
    /// Lanes that produced a recorded verdict (final batches only).
    pub final_lanes: u64,
    /// Lanes built, escalation reruns included.
    pub lanes_run: u64,
    /// Rounds simulated over every lane.
    pub rounds: u64,
    /// Each map's output digest, in [`FRONTIER_MAPS`] order.
    pub output_digests: Vec<u64>,
    /// The executor's durability barriers; zero unless `events` was armed.
    pub barriers: Barriers,
}

impl FrontierIter {
    /// Whether this pass did the same work as `other`: the same probes,
    /// waves, escalations, lanes and rounds.
    pub fn same_work(&self, other: &Self) -> bool {
        (self.probes, self.waves, self.escalated, self.final_lanes, self.lanes_run, self.rounds)
            == (
                other.probes,
                other.waves,
                other.escalated,
                other.final_lanes,
                other.lanes_run,
                other.rounds,
            )
    }
}

/// One map, opened and ready to run: parsed spec, fresh checkpoint, and
/// the output file.
pub struct OpenMap {
    pub spec: FrontierSpec,
    pub ckpt: FrontierCheckpoint,
    pub file: File,
    pub out_path: std::path::PathBuf,
}

/// Parse every committed map and create its checkpoint and output under
/// `dir` — a frontier iteration's set-up.
pub fn open_maps(dir: &Path) -> Result<Vec<OpenMap>, String> {
    let mut maps = Vec::with_capacity(FRONTIER_MAPS.len());
    for (i, (path, _)) in FRONTIER_MAPS.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let spec = FrontierSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        spec.validate()?;
        let sub = dir.join(format!("map{i}"));
        std::fs::create_dir_all(&sub).map_err(|e| format!("{}: {e}", sub.display()))?;
        let ckpt = FrontierCheckpoint::fresh(
            &sub.join("frontier.ckpt"),
            spec.digest("frontier.csv"),
            spec.points().len(),
        )?;
        let out_path = sub.join("frontier.csv");
        let file = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        maps.push(OpenMap { spec, ckpt, file, out_path });
    }
    warm_registry(maps.iter().map(|m| &m.spec.template.spec))?;
    Ok(maps)
}

/// Run the four maps once into `dir` with `threads` workers through a
/// [`CountingFactory`] over the registry, so every pass counts its lanes
/// and rounds. `events` arms an `EventLog` observer through
/// `Frontier::run_into_observed`.
pub fn frontier_iteration(dir: &Path, threads: usize, events: bool) -> Result<FrontierIter, String> {
    let started = Instant::now();
    let maps = open_maps(dir)?;
    let factory = CountingFactory::default();
    let setup_s = started.elapsed().as_secs_f64();

    let engine = Frontier::new().threads(threads);
    let mut it = FrontierIter {
        wall_s: 0.0,
        setup_s,
        probes: 0,
        unclean: 0,
        waves: 0,
        escalated: 0,
        final_lanes: 0,
        lanes_run: 0,
        rounds: 0,
        output_digests: Vec::new(),
        barriers: Barriers::default(),
    };
    let mut outputs = Vec::with_capacity(maps.len());
    let mut logs = Vec::new();
    for (i, mut map) in maps.into_iter().enumerate() {
        let mut sink = CsvMapSink::new(DurableFile::new(map.file));
        let summary = if events {
            let log_path = dir.join(format!("map{i}/events.jsonl"));
            let log = EventLog::create(&log_path).map_err(|e| e.to_string())?;
            logs.push(log_path);
            let mut observer = Observer::new().with_log(log);
            let total = map.spec.points().len() as u64;
            observer.record(&ObsEvent::RunStarted { kind: RunKind::Frontier, total });
            let map_started = Instant::now();
            let summary = engine.run_into_observed(
                &map.spec,
                &factory,
                &mut sink as &mut dyn MapSink,
                Some(&mut map.ckpt),
                &mut observer,
            )?;
            let rounds = observer.rounds_seen();
            observer.finish(&ObsEvent::RunFinished {
                kind: RunKind::Frontier,
                done: map.ckpt.rows_written() as u64,
                wall_ms: map_started.elapsed().as_millis() as u64,
                rounds,
            })?;
            summary
        } else {
            engine.run_into(
                &map.spec,
                &factory,
                &mut sink as &mut dyn MapSink,
                Some(&mut map.ckpt),
            )?
        };
        it.probes += summary.probes_run as u64;
        it.unclean += summary.unclean_probes as u64;
        it.waves += summary.waves as u64;
        it.escalated += summary.escalated_probes as u64;
        it.final_lanes +=
            map.ckpt.probes().iter().map(|p| p.lanes.map_or(1, |(_, l)| l) as u64).sum::<u64>();
        outputs.push(map.out_path);
    }
    it.wall_s = started.elapsed().as_secs_f64();
    it.lanes_run = factory.lanes();
    it.rounds = factory.rounds();
    it.barriers = read_barriers(&logs)?;
    for path in &outputs {
        it.output_digests.push(file_digest(path)?);
    }
    Ok(it)
}
