//! End-to-end benchmark of the emac reproduction.
//!
//! ```text
//! perfbench --workload <table1_campaign|grid_short|frontier_maps>
//!           --seed N --seconds S --trace 0|1 [--threads T] [--work DIR]
//! ```
//!
//! Each workload runs in this one process through the library entry points
//! the `emac` CLI uses: `Campaign::run_subset` with a streaming sink over
//! `DurableFile` plus `Checkpoint`, or `Frontier::run_into` with
//! `CsvMapSink` plus `FrontierCheckpoint`, all under `--work` with real
//! fsync. With `--trace 0` the workload repeats for `--seconds` and the
//! end-to-end metrics are medians over those repetitions; with
//! `--trace 1` a separate traced pass reports the per-layer split. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! and `metrics`.

mod delegates;
mod inputs;
mod measure;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use emac_core::campaign::parse_campaign_spec;
use emac_core::frontier::FrontierSpec;

use delegates::clock_overhead_ns;
use inputs::{campaign_job, CampaignJob, Workload, FRONTIER_MAPS};
use measure::{campaign_iteration, frontier_iteration, Barriers, CampaignIter, FrontierIter};
use traced::{trace_campaign, trace_frontier, Layers};

/// Fewest timed repetitions per untraced run, however short `--seconds`.
const MIN_ITERS: usize = 3;
/// Repetitions of each untraced comparison run in a traced run.
const TRACE_REPS: usize = 2;
/// Repetitions of the spec-parse timing.
const PARSE_REPS: usize = 9;

/// Algorithms with a `protocol.<name>.ns_per_round` metric.
const PROTOCOLS: [&str; 6] =
    ["k-cycle", "k-clique", "k-subsets", "count-hop", "orchestra", "adjust-window"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    work: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut threads = 2;
        let mut work = PathBuf::from(format!(".bench_work/perfbench-{}", std::process::id()));
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--threads" => threads = value.parse::<usize>().map_err(|e| bad(&e))?.max(1),
                "--work" => work = PathBuf::from(value),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            threads,
            work,
        })
    }
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// A run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("{}: {e}", args.work.display()))
        .and_then(|()| if args.trace { traced_run(&args) } else { untraced_run(&args) });
    let _ = std::fs::remove_dir_all(&args.work);
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// An empty directory `work/name` for one iteration's files.
fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`q` in `[0, 1]`); 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Repeat `iteration` until `seconds` have passed and at least
/// [`MIN_ITERS`] repetitions ran.
fn repeat<T>(
    seconds: f64,
    mut iteration: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while out.len() < MIN_ITERS || Instant::now() < deadline {
        out.push(iteration()?);
    }
    Ok(out)
}

/// The end-to-end metrics over the timed passes. `rounds` holds each
/// pass's simulated rounds; a pass whose count differs from the reference
/// has already failed its units.
fn end_to_end(walls: &[f64], setups: &[f64], rounds: &[u64]) -> Result<Vec<Metric>, String> {
    let wall = median(walls);
    let sim_rounds = median(&rounds.iter().map(|&r| r as f64).collect::<Vec<_>>());
    Ok(vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", median(setups), "s"),
        metric("rounds_per_s", ratio(sim_rounds, wall), "1/s"),
        metric("sim_rounds", sim_rounds, "count"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

fn untraced_run(args: &Args) -> Result<Outcome, String> {
    match campaign_job(args.workload, args.seed) {
        Some(job) => untraced_campaign(args, &job),
        None => untraced_frontier(args),
    }
}

fn run_campaign(
    args: &Args,
    job: &CampaignJob,
    threads: usize,
    events: bool,
    keep_digests: bool,
) -> Result<CampaignIter, String> {
    let dir = fresh_dir(&args.work, "iter")?;
    campaign_iteration(job, &dir, threads, events, keep_digests)
}

/// An untimed serial pass: warms caches and lazy set-up, and gives the
/// reference output every timed pass must reproduce byte-for-byte. Its
/// output must also match the pinned digest, where one is pinned.
fn campaign_reference(
    args: &Args,
    job: &CampaignJob,
    keep_digests: bool,
) -> Result<(CampaignIter, bool), String> {
    let reference = run_campaign(args, job, 1, false, keep_digests)?;
    let pinned_ok = job.pinned.is_none_or(|p| p == reference.output_digest);
    if !pinned_ok {
        eprintln!(
            "perfbench: output digest {:016x} differs from the pinned {:016x}",
            reference.output_digest,
            job.pinned.unwrap_or_default()
        );
    }
    let ok = pinned_ok && reference.failed == 0;
    Ok((reference, ok))
}

/// Units of `it` that failed: all of them when its output or round count
/// differs from the reference, else those that errored or ran unclean.
fn campaign_failed(it: &CampaignIter, reference: &CampaignIter, reference_ok: bool) -> u64 {
    let same = it.output_digest == reference.output_digest && it.rounds == reference.rounds;
    if same && reference_ok {
        it.failed
    } else {
        it.units
    }
}

fn untraced_campaign(args: &Args, job: &CampaignJob) -> Result<Outcome, String> {
    let (reference, reference_ok) = campaign_reference(args, job, false)?;
    let iters = repeat(args.seconds, || run_campaign(args, job, args.threads, false, false))?;
    let attempted = iters.iter().map(|it| it.units).sum();
    let failed = iters.iter().map(|it| campaign_failed(it, &reference, reference_ok)).sum();
    let walls: Vec<f64> = iters.iter().map(|it| it.wall_s).collect();
    let setups: Vec<f64> = iters.iter().map(|it| it.setup_s).collect();
    let rounds: Vec<u64> = iters.iter().map(|it| it.rounds).collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(&walls, &setups, &rounds)?,
    })
}

/// Whether each map's output equals its pinned digest.
fn maps_match(it: &FrontierIter) -> bool {
    it.output_digests.len() == FRONTIER_MAPS.len()
        && it.output_digests.iter().zip(FRONTIER_MAPS).all(|(d, (_, pinned))| *d == pinned)
}

fn report_map_mismatches(it: &FrontierIter) {
    for (digest, (path, pinned)) in it.output_digests.iter().zip(FRONTIER_MAPS) {
        if *digest != pinned {
            eprintln!("perfbench: {path}: output digest {digest:016x} differs from the pinned {pinned:016x}");
        }
    }
}

/// Probes of `it` that failed: all of them when a map's output differs
/// from its pinned digest or the pass did other work than the reference,
/// else those that ran unclean.
fn frontier_failed(it: &FrontierIter, reference: &FrontierIter) -> u64 {
    if maps_match(it) && it.same_work(reference) {
        it.unclean
    } else {
        it.probes
    }
}

fn run_frontier(args: &Args, threads: usize, events: bool) -> Result<FrontierIter, String> {
    let dir = fresh_dir(&args.work, "iter")?;
    frontier_iteration(&dir, threads, events)
}

/// An untimed serial pass: warms up and gives the work every timed pass
/// must repeat.
fn frontier_reference(args: &Args) -> Result<FrontierIter, String> {
    let reference = run_frontier(args, 1, false)?;
    report_map_mismatches(&reference);
    Ok(reference)
}

fn untraced_frontier(args: &Args) -> Result<Outcome, String> {
    let reference = frontier_reference(args)?;
    let iters = repeat(args.seconds, || run_frontier(args, args.threads, false))?;
    let attempted = iters.iter().map(|it| it.probes).sum();
    let failed = iters.iter().map(|it| frontier_failed(it, &reference)).sum();
    let walls: Vec<f64> = iters.iter().map(|it| it.wall_s).collect();
    let setups: Vec<f64> = iters.iter().map(|it| it.setup_s).collect();
    let rounds: Vec<u64> = iters.iter().map(|it| it.rounds).collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(&walls, &setups, &rounds)?,
    })
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let overhead_ns = clock_overhead_ns();
    match campaign_job(args.workload, args.seed) {
        Some(job) => traced_campaign(args, &job, overhead_ns),
        None => traced_frontier(args, overhead_ns),
    }
}

/// Untraced walls of the comparison runs a traced run reports against.
#[derive(Default)]
struct Walls {
    at_threads: Vec<f64>,
    serial: Vec<f64>,
    armed: Vec<f64>,
    /// The fsync barriers the executor reported in each armed run.
    barriers: Vec<Barriers>,
}

impl Walls {
    /// The executor's barriers: the count of the first armed run (counts
    /// repeat exactly) and the median barrier time.
    fn barriers(&self) -> Barriers {
        let times: Vec<f64> = self.barriers.iter().map(|b| b.wall_s).collect();
        Barriers {
            count: self.barriers.first().map_or(0, |b| b.count),
            wall_s: median(&times),
        }
    }
}

fn time_parse(parse: impl Fn() -> Result<usize, String>) -> Result<(f64, u64), String> {
    let mut times = Vec::with_capacity(PARSE_REPS);
    let mut units = 0;
    for _ in 0..PARSE_REPS {
        let started = Instant::now();
        units = parse()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((median(&times), units as u64))
}

fn traced_campaign(args: &Args, job: &CampaignJob, overhead_ns: f64) -> Result<Outcome, String> {
    let (reference, reference_ok) = campaign_reference(args, job, true)?;
    let mut walls = Walls::default();
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..TRACE_REPS {
        for (threads, events, wall) in [
            (args.threads, false, &mut walls.at_threads),
            (1, false, &mut walls.serial),
            (args.threads, true, &mut walls.armed),
        ] {
            let it = run_campaign(args, job, threads, events, false)?;
            attempted += it.units;
            failed += campaign_failed(&it, &reference, reference_ok);
            wall.push(it.wall_s);
            if events {
                walls.barriers.push(it.barriers);
            }
        }
    }

    let dir = fresh_dir(&args.work, "traced")?;
    let trace = trace_campaign(job, &dir, &reference.unit_digests, overhead_ns)?;
    attempted += trace.units;
    failed += if trace.output_digest == reference.output_digest && reference_ok {
        trace.layers.mismatches
    } else {
        trace.units
    };
    let text = job.source.read()?;
    let (parse_s, units) = time_parse(|| Ok(parse_campaign_spec(&text)?.len()))?;

    let parallel_eff =
        ratio(median(&walls.serial), args.threads as f64 * median(&walls.at_threads));
    let mut metrics = vec![
        metric("spec.parse_s", parse_s, "s"),
        metric("spec.units", units as f64, "count"),
        metric("campaign.parallel_eff", parallel_eff, "ratio"),
    ];
    metrics.extend(frontier_metrics(FrontierCounts::default()));
    metrics.extend(layer_metrics(&trace.layers, walls.barriers()));
    metrics.extend(overhead_metrics(trace.wall_s, &walls));
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics })
}

/// The frontier executor's counts; zeros for workloads without maps.
#[derive(Default)]
struct FrontierCounts {
    parallel_eff: f64,
    waves: u64,
    probes: u64,
    lanes_run: u64,
    escalations: u64,
    final_lanes: u64,
}

fn frontier_metrics(c: FrontierCounts) -> Vec<Metric> {
    let rerun = c.lanes_run.saturating_sub(c.final_lanes) as f64;
    vec![
        metric("frontier.parallel_eff", c.parallel_eff, "ratio"),
        metric("frontier.waves", c.waves as f64, "count"),
        metric("frontier.probes", c.probes as f64, "count"),
        metric("frontier.lanes_run", c.lanes_run as f64, "count"),
        metric("frontier.escalations", c.escalations as f64, "count"),
        metric("frontier.rerun_lane_frac", ratio(rerun, c.lanes_run as f64), "ratio"),
    ]
}

/// The scenario, engine and protocol metrics of a traced pass; the fsync
/// metrics are the executor's own `barriers` from the armed runs.
fn layer_metrics(l: &Layers, barriers: Barriers) -> Vec<Metric> {
    let busy: f64 = l.unit_s.iter().sum();
    let h = &l.engine.hooks;
    let mut out = vec![
        metric("scenario.build_s", l.build, "s"),
        metric("scenario.table_s", l.table, "s"),
        metric("scenario.setup_share", ratio(l.build, busy), "ratio"),
        metric("scenario.serialize_s", l.serialize, "s"),
        metric("scenario.fsync_s", barriers.wall_s, "s"),
        metric("scenario.fsyncs", barriers.count as f64, "count"),
        metric("scenario.simulate_s", l.simulate, "s"),
        metric("scenario.drain_s", l.drain, "s"),
        metric("scenario.score_s", l.score, "s"),
        metric("scenario.max_unit_s", l.unit_s.iter().copied().fold(0.0, f64::max), "s"),
        metric("scenario.unit_p50_ms", percentile(&l.unit_s, 0.5) * 1e3, "ms"),
        metric("scenario.unit_p99_ms", percentile(&l.unit_s, 0.99) * 1e3, "ms"),
        metric("scenario.unit_samples", l.unit_s.len() as f64, "count"),
        metric("engine.ns_per_round", ratio((l.simulate + l.drain) * 1e9, h.rounds as f64), "ns"),
        metric("engine.rounds", h.rounds as f64, "count"),
        metric("engine.wake_table_rounds", h.wake_table_rounds as f64, "count"),
        metric("engine.wake_enum_rounds", h.wake_enum_rounds as f64, "count"),
        metric("engine.wake_shared_rounds", h.wake_shared_rounds as f64, "count"),
        metric("engine.feedback_calls", h.feedback_calls as f64, "count"),
        metric("engine.fault_rounds", h.fault_rounds as f64, "count"),
        metric("engine.injected", l.engine.injected as f64, "count"),
        metric("engine.delivered", l.engine.delivered as f64, "count"),
        metric("engine.energy", l.engine.energy as f64, "count"),
        metric("engine.max_queue", l.engine.max_queue as f64, "count"),
    ];
    for alg in PROTOCOLS {
        let (ns, rounds) = l.protocol.get(alg).copied().unwrap_or((0.0, 0));
        out.push(metric(format!("protocol.{alg}.ns_per_round"), ratio(ns, rounds as f64), "ns"));
    }
    out
}

fn overhead_metrics(traced_wall: f64, walls: &Walls) -> Vec<Metric> {
    vec![
        metric("trace.overhead_frac", ratio(traced_wall, median(&walls.serial)) - 1.0, "ratio"),
        metric(
            "obs.armed_overhead_frac",
            ratio(median(&walls.armed), median(&walls.at_threads)) - 1.0,
            "ratio",
        ),
    ]
}

fn traced_frontier(args: &Args, overhead_ns: f64) -> Result<Outcome, String> {
    let reference = frontier_reference(args)?;
    let (mut attempted, mut failed) = (reference.probes, frontier_failed(&reference, &reference));
    let mut walls = Walls::default();
    let mut at_threads = None;
    for _ in 0..TRACE_REPS {
        for (threads, events, wall) in [
            (args.threads, false, &mut walls.at_threads),
            (1, false, &mut walls.serial),
            (args.threads, true, &mut walls.armed),
        ] {
            let it = run_frontier(args, threads, events)?;
            attempted += it.probes;
            failed += frontier_failed(&it, &reference);
            wall.push(it.wall_s);
            if events {
                walls.barriers.push(it.barriers);
            } else if threads == args.threads {
                at_threads = Some(it);
            }
        }
    }
    let at_threads = at_threads.expect("at least one repetition");

    let dir = fresh_dir(&args.work, "traced")?;
    let trace = trace_frontier(&dir, overhead_ns)?;
    let faithful = trace.bytes_match
        && trace.lanes_run == at_threads.lanes_run
        && trace.counted_rounds == at_threads.rounds
        && trace.counted_rounds == trace.layers.engine.hooks.rounds;
    attempted += trace.units;
    failed += if faithful { trace.layers.mismatches } else { trace.units };
    let texts = FRONTIER_MAPS
        .iter()
        .map(|(path, _)| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (parse_s, units) = time_parse(|| {
        texts
            .iter()
            .try_fold(0, |points, text| Ok(points + FrontierSpec::parse(text)?.points().len()))
    })?;

    let mut metrics = vec![
        metric("spec.parse_s", parse_s, "s"),
        metric("spec.units", units as f64, "count"),
        metric("campaign.parallel_eff", 0.0, "ratio"),
    ];
    metrics.extend(frontier_metrics(FrontierCounts {
        parallel_eff: ratio(median(&walls.serial), args.threads as f64 * median(&walls.at_threads)),
        waves: at_threads.waves,
        probes: at_threads.probes,
        lanes_run: at_threads.lanes_run,
        escalations: at_threads.escalated,
        final_lanes: at_threads.final_lanes,
    }));
    metrics.extend(layer_metrics(&trace.layers, walls.barriers()));
    metrics.extend(overhead_metrics(trace.wall_s, &walls));
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics })
}
