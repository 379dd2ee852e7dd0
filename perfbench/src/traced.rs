//! The traced run: every unit driven serially through the public
//! per-layer calls, with a clock read at each layer boundary.
//!
//! A campaign unit is decomposed exactly as `Runner::try_run_against`
//! composes it — registry, `Algorithm::build`, `Simulator::new` (which
//! expands the schedule table), `run`/`run_probe_round`,
//! `run_until_drained`, `stability::classify` — then written through the
//! real sink and checkpoint; its report digest must equal the untraced
//! run's. Frontier maps run through timing and counting delegates, and
//! their bytes must equal the pinned ones; the lanes the maps built are
//! then replayed through the same decomposition (lockstep ensembles
//! through `BatchSimulator`), and the replayed verdicts must equal the
//! checkpointed ones.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use emac::registry::Registry;
use emac_core::campaign::{
    parse_campaign_spec, Checkpoint, DurableFile, MetricsDetail, ScenarioRun, ScenarioSpec,
};
use emac_core::frontier::checkpoint::ProbeRecord;
use emac_core::frontier::{majority_verdict, CsvMapSink, Frontier, FrontierSpec, MapSink};
use emac_core::stability::classify;
use emac_core::{report_digest, RunReport, Verdict};
use emac_sim::{BatchSimulator, Metrics, SimConfig, SimHooks, Simulator, WakeMode};

use crate::delegates::{time_protocols, time_table, CountingFactory, ProtocolClock, TimedMapSink};
use crate::inputs::{CampaignJob, FRONTIER_MAPS};
use crate::measure::{campaign_sink, checkpoint_digest, file_digest, open_maps};

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Engine counters summed over units: the `SimHooks` phase counters plus
/// the `Metrics` totals a user reads off a run.
#[derive(Debug, Default)]
pub struct EngineTally {
    pub hooks: SimHooks,
    pub injected: u64,
    pub delivered: u64,
    pub energy: u64,
    pub max_queue: u64,
}

impl EngineTally {
    fn add_metrics(&mut self, m: &Metrics) {
        self.injected += m.injected;
        self.delivered += m.delivered;
        self.energy += m.energy_total;
        self.max_queue = self.max_queue.max(m.max_total_queued);
    }
}

/// Wall time of one unit's scenario phases, in seconds.
#[derive(Debug, Default)]
struct Phases {
    build: f64,
    table: f64,
    simulate: f64,
    drain: f64,
    score: f64,
}

impl Phases {
    /// The unit's own time. The schedule table is already inside `build`
    /// (`Simulator::new` expands it); `table` times a second expansion.
    fn total(&self) -> f64 {
        self.build + self.simulate + self.drain + self.score
    }
}

/// Per-layer totals of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub build: f64,
    pub table: f64,
    pub simulate: f64,
    pub drain: f64,
    pub score: f64,
    pub serialize: f64,
    /// Each unit's wall time, build through fsync, in seconds.
    pub unit_s: Vec<f64>,
    pub engine: EngineTally,
    /// Estimated protocol-callback nanoseconds and simulated rounds, per
    /// registry algorithm name.
    pub protocol: BTreeMap<String, (f64, u64)>,
    /// Units whose traced result differs from the untraced run's.
    pub mismatches: u64,
}

impl Layers {
    fn add_phases(&mut self, ph: &Phases) {
        self.build += ph.build;
        self.table += ph.table;
        self.simulate += ph.simulate;
        self.drain += ph.drain;
        self.score += ph.score;
    }

    fn add_protocol(
        &mut self,
        algorithm: &str,
        clock: &ProtocolClock,
        overhead_ns: f64,
        rounds: u64,
    ) {
        let entry = self.protocol.entry(algorithm.to_string()).or_default();
        entry.0 += clock.estimate_ns(overhead_ns);
        entry.1 += rounds;
    }
}

/// The simulator configuration `Runner::try_run_against` derives from a
/// spec.
fn sim_config(spec: &ScenarioSpec, cap: usize) -> SimConfig {
    let sample = (spec.rounds / 2_048).max(1);
    let mut cfg =
        SimConfig::new(spec.n, cap).adversary_type(spec.rho, spec.beta).sample_every(sample);
    if let Some(f) = &spec.faults {
        cfg = cfg.faults(f.clone());
    }
    cfg
}

/// One lane built through the registry, its protocols under `clock`.
struct Lane {
    sim: Simulator,
    name: String,
    cap: usize,
}

fn build_lane(
    spec: &ScenarioSpec,
    clock: &Arc<ProtocolClock>,
    ph: &mut Phases,
) -> Result<Lane, String> {
    let started = Instant::now();
    spec.validate()?;
    let algorithm = Registry::make_algorithm(spec)?;
    let cap = spec.cap.unwrap_or_else(|| algorithm.required_cap(spec.n));
    let mut built = algorithm.build(spec.n);
    let schedule = match &built.wake {
        WakeMode::Scheduled(s) => Some(Arc::clone(s)),
        WakeMode::Adaptive => None,
    };
    let adversary = Registry::make_adversary(spec, schedule.as_ref())?;
    let name = built.name.clone();
    built.protocols = time_protocols(std::mem::take(&mut built.protocols), clock);
    let sim = Simulator::new(sim_config(spec, cap), built, adversary);
    ph.build += secs(started);
    if let Some(s) = schedule {
        ph.table += time_table(s.as_ref(), spec.n) as f64 * 1e-9;
    }
    Ok(Lane { sim, name, cap })
}

/// Classify a finished lane into the report `Runner` would return.
fn lane_report(
    spec: &ScenarioSpec,
    name: String,
    cap: usize,
    tripped_round: Option<u64>,
    drained: Option<bool>,
    sim: &Simulator,
) -> RunReport {
    let metrics = sim.metrics().clone();
    let mut stability = classify(&metrics);
    if tripped_round.is_some() {
        stability.verdict = Verdict::Diverging;
    }
    RunReport {
        algorithm: name,
        n: spec.n,
        cap,
        rho: spec.rho,
        beta: spec.beta,
        rounds: spec.rounds,
        metrics,
        violations: sim.violations().clone(),
        stability,
        drained,
        tripped_round,
    }
}

/// One solo unit; the simulator (and with it the protocol timers) is
/// dropped before returning, so `clock` is complete.
fn run_solo(
    spec: &ScenarioSpec,
    clock: &Arc<ProtocolClock>,
    ph: &mut Phases,
) -> Result<(RunReport, SimHooks), String> {
    let Lane { mut sim, name, cap } = build_lane(spec, clock, ph)?;
    let started = Instant::now();
    let tripped = match spec.probe_cap {
        Some(queue_cap) => sim.run_probe_round(spec.rounds, queue_cap),
        None => {
            sim.run(spec.rounds);
            None
        }
    };
    ph.simulate += secs(started);
    let started = Instant::now();
    let drained = spec.drain.map(|max| sim.run_until_drained(max));
    ph.drain += secs(started);
    let started = Instant::now();
    let report = lane_report(spec, name, cap, tripped, drained, &sim);
    ph.score += secs(started);
    Ok((report, *sim.hooks()))
}

/// One lockstep seed batch, as `Runner::try_run_batch` runs it.
fn run_batch(
    spec: &ScenarioSpec,
    seeds: &[u64],
    clock: &Arc<ProtocolClock>,
    ph: &mut Phases,
) -> Result<(Vec<RunReport>, SimHooks), String> {
    let mut sims = Vec::with_capacity(seeds.len());
    let mut names = Vec::with_capacity(seeds.len());
    let mut cap = None;
    for &seed in seeds {
        let mut lane = spec.clone();
        lane.seed = seed;
        let built = build_lane(&lane, clock, ph)?;
        if cap.is_some_and(|c| c != built.cap) {
            return Err(format!("seed {seed} asks for another energy cap than its batch"));
        }
        cap = Some(built.cap);
        sims.push(built.sim);
        names.push(built.name);
    }
    let cap = cap.ok_or("a seed batch needs at least one seed")?;
    let mut batch = BatchSimulator::new(sims);
    let started = Instant::now();
    let tripped = match spec.probe_cap {
        Some(queue_cap) => batch.run_probe(spec.rounds, queue_cap),
        None => {
            batch.run(spec.rounds);
            vec![None; seeds.len()]
        }
    };
    ph.simulate += secs(started);
    let started = Instant::now();
    let drained: Vec<Option<bool>> = match spec.drain {
        Some(max) => batch.run_until_drained(max).into_iter().map(Some).collect(),
        None => vec![None; seeds.len()],
    };
    ph.drain += secs(started);
    let hooks = batch.hooks();
    let started = Instant::now();
    let reports = batch
        .into_lanes()
        .iter()
        .zip(names)
        .zip(tripped.iter().zip(drained))
        .map(|((sim, name), (&tripped, drained))| {
            lane_report(spec, name, cap, tripped, drained, sim)
        })
        .collect();
    ph.score += secs(started);
    Ok((reports, hooks))
}

/// A traced campaign pass.
pub struct CampaignTrace {
    pub wall_s: f64,
    pub units: u64,
    pub layers: Layers,
    pub output_digest: u64,
}

/// Drive every unit of `job` serially through the per-layer calls into
/// the real sink and checkpoint under `dir`. `expected` holds the
/// untraced run's per-unit report digests.
pub fn trace_campaign(
    job: &CampaignJob,
    dir: &Path,
    expected: &[u64],
    overhead_ns: f64,
) -> Result<CampaignTrace, String> {
    let started = Instant::now();
    let text = job.source.read()?;
    let specs = parse_campaign_spec(&text)?;
    let digest = checkpoint_digest(&specs, job.format, job.detail);
    let mut ckpt = Checkpoint::fresh(&dir.join("campaign.ckpt"), digest, specs.len())?;
    let out_path = dir.join(job.format.file_name());
    let file = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let mut sink = campaign_sink(job.format, file);
    let mut layers = Layers::default();

    for (index, spec) in specs.iter().enumerate() {
        let clock = Arc::new(ProtocolClock::default());
        let mut ph = Phases::default();
        let outcome = run_solo(spec, &clock, &mut ph).map(|(mut report, hooks)| {
            let started = Instant::now();
            if job.detail == MetricsDetail::Slim {
                report.metrics.slim();
            }
            ph.score += secs(started);
            layers.engine.hooks.merge(&hooks);
            layers.engine.add_metrics(&report.metrics);
            layers.add_protocol(&spec.algorithm, &clock, overhead_ns, hooks.rounds);
            report
        });
        let digest = outcome.as_ref().map_or(0, report_digest);
        layers.mismatches += u64::from(expected.get(index) != Some(&digest));

        let started = Instant::now();
        sink.accept(index, ScenarioRun { spec: spec.clone(), outcome })?;
        let serialize = secs(started);
        // The executor's hand-off. Its barriers are counted and timed in
        // the armed untraced runs; here they only count toward the unit.
        let started = Instant::now();
        sink.sync()?;
        ckpt.record(index)?;
        let durable = secs(started);

        layers.add_phases(&ph);
        layers.serialize += serialize;
        layers.unit_s.push(ph.total() + serialize + durable);
    }
    sink.finish()?;
    let wall_s = secs(started);
    Ok(CampaignTrace {
        wall_s,
        units: specs.len() as u64,
        layers,
        output_digest: file_digest(&out_path)?,
    })
}

/// A traced frontier pass.
pub struct FrontierTrace {
    /// Wall time of the delegated map run (the replay is not included).
    pub wall_s: f64,
    pub layers: Layers,
    /// Lanes the executor built.
    pub lanes_run: u64,
    /// Probes replayed.
    pub units: u64,
    /// Rounds counted by the adversary delegates during the map run.
    pub counted_rounds: u64,
    /// Whether every map's bytes equal the pinned output.
    pub bytes_match: bool,
}

/// Run the maps serially through the delegates under `dir`, then replay
/// their lanes through the per-layer decomposition.
pub fn trace_frontier(dir: &Path, overhead_ns: f64) -> Result<FrontierTrace, String> {
    let started = Instant::now();
    let maps = open_maps(dir)?;
    let factory = CountingFactory::logging();
    let engine = Frontier::new().threads(1);
    let mut layers = Layers::default();
    let mut runs = Vec::with_capacity(maps.len());
    let mut outputs = Vec::with_capacity(maps.len());
    for mut map in maps {
        let mut sink = TimedMapSink::new(CsvMapSink::new(DurableFile::new(map.file)));
        engine.run_into(&map.spec, &factory, &mut sink as &mut dyn MapSink, Some(&mut map.ckpt))?;
        layers.serialize += sink.serialize.as_secs_f64();
        runs.push((map.spec, factory.take_lanes(), map.ckpt.probes().to_vec()));
        outputs.push(map.out_path);
    }
    let wall_s = secs(started);

    let mut bytes_match = true;
    for (path, (_, pinned)) in outputs.iter().zip(FRONTIER_MAPS) {
        bytes_match &= file_digest(path)? == pinned;
    }
    let lanes_run = runs.iter().map(|(_, lanes, _)| lanes.len() as u64).sum();
    let mut units = 0;
    for (spec, lanes, probes) in &runs {
        units += replay_map(spec, lanes, probes, overhead_ns, &mut layers)?;
    }
    Ok(FrontierTrace {
        wall_s,
        layers,
        lanes_run,
        units,
        counted_rounds: factory.rounds(),
        bytes_match,
    })
}

/// Replay one map's lanes, in the order the executor built them, and
/// compare each probe's verdict with its checkpoint record. Returns the
/// number of probes replayed.
fn replay_map(
    spec: &FrontierSpec,
    lanes: &[ScenarioSpec],
    probes: &[ProbeRecord],
    overhead_ns: f64,
    layers: &mut Layers,
) -> Result<u64, String> {
    let ensemble = spec.seeds.len() > 1;
    // A solo probe is one lane; an ensemble batch starts at the base seed.
    let mut batches: Vec<(ScenarioSpec, Vec<u64>)> = Vec::new();
    for lane in lanes {
        match batches.last_mut() {
            Some((_, seeds)) if ensemble && lane.seed != spec.seeds[0] => seeds.push(lane.seed),
            _ => batches.push((lane.clone(), vec![lane.seed])),
        }
    }

    // (verdict, lane tally, wall seconds) per probe; an escalation — the
    // same probe re-run with more lanes — replaces its predecessor batch.
    type Replayed = (Verdict, Option<(usize, usize)>, f64);
    let mut replayed: Vec<Replayed> = Vec::new();
    let mut previous: Option<(&ScenarioSpec, usize)> = None;
    for (probe, seeds) in &batches {
        let clock = Arc::new(ProtocolClock::default());
        let mut ph = Phases::default();
        let (verdict, tally, rounds) = if ensemble {
            let (reports, hooks) = run_batch(probe, seeds, &clock, &mut ph)?;
            layers.engine.hooks.merge(&hooks);
            reports.iter().for_each(|r| layers.engine.add_metrics(&r.metrics));
            let diverging =
                reports.iter().filter(|r| r.stability.verdict == Verdict::Diverging).count();
            let lanes = reports.len();
            (majority_verdict(diverging, lanes), Some((diverging, lanes)), hooks.rounds)
        } else {
            let (report, hooks) = run_solo(probe, &clock, &mut ph)?;
            layers.engine.hooks.merge(&hooks);
            layers.engine.add_metrics(&report.metrics);
            (report.stability.verdict, None, hooks.rounds)
        };
        layers.add_protocol(&probe.algorithm, &clock, overhead_ns, rounds);
        layers.add_phases(&ph);
        let escalated = previous.is_some_and(|(p, n)| ensemble && p == probe && seeds.len() > n);
        match replayed.last_mut() {
            Some(last) if escalated => *last = (verdict, tally, last.2 + ph.total()),
            _ => replayed.push((verdict, tally, ph.total())),
        }
        previous = Some((probe, seeds.len()));
    }

    let matched = replayed
        .iter()
        .zip(probes)
        .filter(|((verdict, tally, _), rec)| *verdict == rec.verdict && *tally == rec.lanes)
        .count();
    layers.mismatches += (replayed.len().max(probes.len()) - matched) as u64;
    layers.unit_s.extend(replayed.iter().map(|r| r.2));
    Ok(replayed.len() as u64)
}
