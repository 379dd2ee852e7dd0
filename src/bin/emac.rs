//! `emac` — command-line driver for the simulator.
//!
//! ```text
//! emac run --alg count-hop --n 8 --rho 1/2 --beta 2 --rounds 100000 \
//!          --adversary uniform --seed 7 [--drain 20000] [--trace 40] \
//!          [--probe-cap 5000] [--jam 1/10 | --faults '{"jam":"1/10","seed":7}']
//! emac campaign spec.json [--threads N] [--out DIR]
//!               [--format csv|jsonl] [--detail full|slim] [--resume] [--limit M]
//!               [--progress] [--events FILE]
//! emac campaign --example
//! emac frontier template.json [--axis rho|beta|k|ell|jam_rate] [--tol T] [--escalate S[:D]]
//!               [--threads N] [--out DIR] [--format csv|jsonl] [--resume] [--max-waves M]
//!               [--progress] [--events FILE]
//! emac frontier --example
//! emac shard plan spec.json --dir DIR --shards D [--format csv|jsonl] [--detail full|slim]
//! emac shard run spec.json --dir DIR --shard S [--resume] [--threads N] [--progress]
//! emac shard merge --dir DIR [--out FILE]
//! emac shard status --dir DIR
//! emac obs report events.jsonl...
//! emac list
//! ```
//!
//! `run` prints the standard run report; `campaign` executes a JSON
//! scenario spec (see `emac campaign --example`) in parallel and
//! **streams** each result to `campaign.csv` (or `campaign.jsonl` with
//! `--format jsonl`) in constant memory, maintains an fsync'd
//! `campaign.ckpt` next to the output, and `--resume` continues a killed
//! (or `--limit`-bounded) campaign where it stopped. It exits non-zero if
//! any run violates a model invariant (useful in CI).
//! `frontier` bisects a stability boundary across a map of `(n, k)`
//! points (see `emac_core::frontier`) with the same checkpoint/resume
//! discipline. `shard` splits either kind of run across a fleet of
//! independent workers that share a work-stealing claim table and merge
//! back to bytes identical to a single-process run (see
//! `emac_core::shard`). `--progress` renders a live stderr line and
//! `--events` appends a structured JSONL event log (`emac_core::obs`);
//! neither touches output bytes or digests. `obs report` aggregates one
//! or more event logs into rate and latency summaries. All parsing and
//! construction logic lives in [`emac::cli`] and [`emac::registry`].

use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use emac::cli;
use emac::core::campaign::{
    campaign_digest, parse_campaign_spec, Campaign, Checkpoint, DurableFile, ScenarioSpec,
    TallySink,
};
use emac::core::frontier::{EscalateSpec, Frontier, FrontierCheckpoint, FrontierSpec, SearchAxis};
use emac::core::journal::reopen_output;
use emac::core::output::Kind;
use emac::core::shard::{ShardPlan, ShardRunner};
use emac::core::{EventLog, ObsEvent, ObsReport, ObservedSink, Observer, Progress, RunKind};
use emac::registry::{Registry, ADVERSARIES, ALGORITHMS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("frontier") => frontier(&args[1..]),
        Some("shard") => shard(&args[1..]),
        Some("obs") => obs(&args[1..]),
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage:\n  emac run --alg <name> --n <N> [--k <K>] [--rho P/Q] [--beta B]\n           \
         [--rounds R] [--adversary <name>] [--seed S] [--seeds A,B,C|N] [--drain R]\n           \
         [--trace N] [--cap C] [--target S] [--dest S] [--period R] [--horizon R]\n           \
         [--probe-cap Q] [--jam P/Q | --faults JSON]\n  \
         emac campaign <spec.json> [--threads N] [--out DIR]\n           \
         [--format csv|jsonl] [--detail full|slim] [--resume] [--limit M]\n           \
         [--progress] [--events FILE]\n  \
         emac campaign --example   # print a commented example spec\n  \
         emac frontier <template.json> [--axis rho|beta|k|ell|jam_rate] [--tol T]\n           \
         [--escalate S[:D]] [--threads N] [--out DIR] [--format csv|jsonl]\n           \
         [--resume] [--max-waves M] [--progress] [--events FILE]\n  \
         emac frontier --example   # print an example template\n  \
         emac shard plan <spec.json> --dir DIR --shards D [--format csv|jsonl] [--detail full|slim]\n  \
         emac shard run <spec.json> --dir DIR --shard S [--resume] [--threads N] [--progress]\n  \
         emac shard merge --dir DIR [--out FILE]\n  \
         emac shard status --dir DIR\n  \
         emac obs report <events.jsonl>...\n  \
         emac list"
    );
}

fn list() {
    println!("algorithms (--alg):");
    for (name, what) in ALGORITHMS {
        println!("  {name:<15} {what}");
    }
    println!("adversaries (--adversary):");
    for (name, what) in ADVERSARIES {
        println!("  {name:<15} {what}");
    }
}

const EXAMPLE_SPEC: &str = r#"{
  "scenarios": [
    {"label": "one-off run", "algorithm": "count-hop", "adversary": "uniform",
     "n": 8, "rho": "1/2", "beta": "2", "rounds": 100000, "drain": 20000, "seed": 7}
  ],
  "grids": [
    {"algorithms": ["k-cycle", "k-clique"], "adversaries": ["uniform"],
     "n": [9, 13], "k": [3, 4], "rho": ["1/5", "1/4"], "beta": ["2"],
     "rounds": 100000, "seeds": [1, 2]}
  ]
}"#;

fn campaign(args: &[String]) -> ExitCode {
    let opts = match cli::parse_campaign(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    if opts.example {
        println!("{EXAMPLE_SPEC}");
        return ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(&opts.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.spec_path);
            return ExitCode::from(2);
        }
    };
    let specs = match parse_campaign_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.spec_path);
            return ExitCode::from(2);
        }
    };

    let mut executor = Campaign::new().detail(opts.detail);
    if let Some(t) = opts.threads {
        executor = executor.threads(t);
    }

    let dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: creating {}: {e}", opts.out_dir);
        return ExitCode::FAILURE;
    }
    let out_path = dir.join(opts.format.file_name(Kind::Campaign));
    let ckpt_path = dir.join(Kind::Campaign.checkpoint_name());
    let digest = campaign_digest(&specs, opts.format, opts.detail);
    let ckpt = if opts.resume {
        Checkpoint::resume(&ckpt_path, digest, specs.len())
    } else {
        Checkpoint::fresh(&ckpt_path, digest, specs.len())
    };
    let mut ckpt = match ckpt {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let already = ckpt.completed();

    // Reconcile the output with the checkpoint: keep exactly the
    // checkpointed rows (plus the CSV header), dropping any unrecorded
    // tail a crash left behind — those scenarios re-execute below.
    let writer = match reopen(&out_path, already, opts.format.header_lines()) {
        Ok(writer) => writer,
        Err(code) => return code,
    };

    let mut todo = ckpt.remaining();
    if todo.is_empty() {
        println!(
            "all {} scenarios already complete in {}; nothing to do",
            specs.len(),
            out_path.display()
        );
        return ExitCode::SUCCESS;
    }
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    eprintln!(
        "running {} of {} scenarios ({} already complete)...",
        todo.len(),
        specs.len(),
        already
    );
    // The observer sits strictly outside the row bytes: it wraps the sink,
    // so arming it cannot change what lands in the output or the digest.
    let observer = match build_observer(
        RunKind::Campaign,
        todo.len() as u64,
        opts.progress,
        opts.events.as_deref(),
        opts.resume,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = Mutex::new(observer);
    obs.lock()
        .expect("observer poisoned")
        .record(&ObsEvent::RunStarted { kind: RunKind::Campaign, total: todo.len() as u64 });
    let started = Instant::now();
    let mut sink =
        TallySink::new(ObservedSink::new(opts.format.campaign_sink(writer, already == 0), &obs));
    let outcome = executor.run_subset(&specs, &todo, &Registry, &mut sink, Some(&mut ckpt));
    let (ok, unclean, failed) = (sink.ok(), sink.unclean(), sink.failed());
    let mut observer = obs.into_inner().expect("observer poisoned");
    let rounds = observer.rounds_seen();
    let finished = observer.finish(&ObsEvent::RunFinished {
        kind: RunKind::Campaign,
        done: (ok + unclean + failed) as u64,
        wall_ms: started.elapsed().as_millis() as u64,
        rounds,
    });
    if let Err(e) = finished {
        eprintln!("warning: event log: {e}");
    }
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        eprintln!("{} scenarios checkpointed; rerun with --resume to continue", ckpt.completed());
        return ExitCode::FAILURE;
    }
    println!(
        "{} of {} scenarios complete in {} ({} this run: {} ok, {} with violations, {} failed)",
        ckpt.completed(),
        specs.len(),
        out_path.display(),
        ok + unclean + failed,
        ok,
        unclean,
        failed
    );
    if ckpt.completed() < specs.len() {
        println!("rerun with --resume to continue");
    }
    if failed == 0 && unclean == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reopen the output a checkpoint vouches for `rows` rows of (after
/// `header_lines` header lines) for appending, noting any unrecorded
/// output a previous run left behind; exit code 2 if it is refused.
fn reopen(out_path: &Path, rows: usize, header_lines: usize) -> Result<DurableFile, ExitCode> {
    match reopen_output(out_path, rows, header_lines) {
        Ok((writer, dropped)) => {
            if dropped > 0 {
                eprintln!("note: dropped {dropped} bytes of unrecorded output from a previous run")
            }
            Ok(writer)
        }
        Err(e) => {
            eprintln!("error: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Build the observer a CLI run asked for: `--events` arms the durable
/// JSONL log (appending — with torn-tail repair — when `--resume` is
/// set), `--progress` the live stderr line. Neither flag leaves the
/// observer disarmed: every record is a no-op and no clock is read.
fn build_observer(
    kind: RunKind,
    total: u64,
    progress: bool,
    events: Option<&str>,
    resume: bool,
) -> Result<Observer, String> {
    let mut observer = Observer::new();
    if let Some(path) = events {
        let path = Path::new(path);
        let log = if resume { EventLog::append(path) } else { EventLog::create(path) }
            .map_err(|e| format!("event log {}: {e}", path.display()))?;
        observer = observer.with_log(log);
    }
    if progress {
        observer = observer.with_progress(Progress::new(kind, total));
    }
    Ok(observer)
}

/// `emac obs report`: aggregate one or more event logs into rate and
/// latency summaries. Exits non-zero on an unreadable file or a
/// malformed event line — a log that does not round-trip through the
/// parser is a bug, not noise to skip.
fn obs(args: &[String]) -> ExitCode {
    let opts = match cli::parse_obs(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let mut report = ObsReport::default();
    for path in &opts.files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = report.ingest(&text) {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}

const EXAMPLE_FRONTIER: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
               "target": 1, "beta": "1", "rounds": 150000, "probe_cap": 5000},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.01,
  "map": {"n": [9, 13], "k": [3]}
}"#;

/// `emac frontier`: adaptive stability-boundary mapping with
/// checkpoint/resume (see `emac_core::frontier`).
fn frontier(args: &[String]) -> ExitCode {
    let opts = match cli::parse_frontier(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    if opts.example {
        println!("{EXAMPLE_FRONTIER}");
        return ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(&opts.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.spec_path);
            return ExitCode::from(2);
        }
    };
    let mut spec = match FrontierSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.spec_path);
            return ExitCode::from(2);
        }
    };
    // CLI overrides apply before the digest, so a resume must repeat them.
    if let Some(axis) = &opts.axis {
        spec.axis = match SearchAxis::parse(axis) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: --axis: {e}");
                return ExitCode::from(2);
            }
        };
    }
    if let Some(tol) = opts.tol {
        spec.tol = tol;
    }
    if let Some((max_seeds, step)) = opts.escalate {
        spec.escalate = Some(EscalateSpec { max_seeds, step });
    }
    if let Err(e) = spec.validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    let dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: creating {}: {e}", opts.out_dir);
        return ExitCode::FAILURE;
    }
    let out_path = dir.join(opts.format.file_name(Kind::Frontier));
    let ckpt_path = dir.join(Kind::Frontier.checkpoint_name());
    let digest = spec.digest(opts.format.file_name(Kind::Frontier));
    let points = spec.points().len();
    let ckpt = if opts.resume {
        FrontierCheckpoint::resume(&ckpt_path, digest, points)
    } else {
        FrontierCheckpoint::fresh(&ckpt_path, digest, points)
    };
    let mut ckpt = match ckpt {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let already = ckpt.rows_written();

    // Reconcile the output with the checkpoint: keep exactly the rows it
    // claims durable (plus the CSV header); anything after re-emits.
    let writer = match reopen(&out_path, already, opts.format.header_lines()) {
        Ok(writer) => writer,
        Err(code) => return code,
    };

    let mut engine = Frontier::new();
    if let Some(t) = opts.threads {
        engine = engine.threads(t);
    }
    if let Some(m) = opts.max_waves {
        engine = engine.max_waves(m);
    }
    eprintln!(
        "mapping {points} point(s) along {} to tol {} ({already} already complete)...",
        spec.axis.name(),
        spec.tol
    );
    // Observability wraps the engine from the outside: probe verdicts,
    // row bytes, and the checkpoint are computed before any event fires.
    let remaining = (points - already) as u64;
    let mut observer = match build_observer(
        RunKind::Frontier,
        remaining,
        opts.progress,
        opts.events.as_deref(),
        opts.resume,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    observer.record(&ObsEvent::RunStarted { kind: RunKind::Frontier, total: remaining });
    let started = Instant::now();
    let mut sink = opts.format.map_sink(writer, already == 0);
    let outcome =
        engine.run_into_observed(&spec, &Registry, sink.as_mut(), Some(&mut ckpt), &mut observer);
    let rounds = observer.rounds_seen();
    let finished = observer.finish(&ObsEvent::RunFinished {
        kind: RunKind::Frontier,
        done: ckpt.rows_written().saturating_sub(already) as u64,
        wall_ms: started.elapsed().as_millis() as u64,
        rounds,
    });
    if let Err(e) = finished {
        eprintln!("warning: event log: {e}");
    }
    let summary = match outcome {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "{} map point(s) checkpointed; rerun with --resume to continue",
                ckpt.rows_written()
            );
            return ExitCode::FAILURE;
        }
    };
    let escalated = if summary.escalated_probes > 0 {
        format!(", {} escalated", summary.escalated_probes)
    } else {
        String::new()
    };
    println!(
        "{} of {} map point(s) complete in {} ({} probe(s) over {} wave(s) this run{escalated})",
        summary.completed,
        summary.points,
        out_path.display(),
        summary.probes_run,
        summary.waves
    );
    if summary.completed < summary.points {
        println!("rerun with --resume to continue");
    }
    if summary.unclean_probes > 0 {
        eprintln!(
            "warning: {} probe(s) violated a model invariant — the mapped boundary \
             is suspect unless the algorithm violates by design (duty-cycle)",
            summary.unclean_probes
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn shard(args: &[String]) -> ExitCode {
    let opts = match cli::parse_shard(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(&opts.dir);
    match opts.action {
        cli::ShardAction::Plan => {
            let text = match std::fs::read_to_string(&opts.spec_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", opts.spec_path);
                    return ExitCode::from(2);
                }
            };
            let plan = match ShardPlan::build(&text, opts.format, opts.detail, opts.shards.unwrap())
                .and_then(|plan| plan.save(dir).map(|()| plan))
            {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            println!(
                "planned {} unit(s) ({} row(s)) across {} shard(s) in {} (digest {:016x})",
                plan.units.len(),
                plan.total_indices(),
                plan.slices.len(),
                dir.display(),
                plan.digest
            );
            for s in &plan.slices {
                println!("  shard {}: units [{}, {})", s.id, s.lo, s.hi);
            }
            ExitCode::SUCCESS
        }
        cli::ShardAction::Run => {
            let text = match std::fs::read_to_string(&opts.spec_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", opts.spec_path);
                    return ExitCode::from(2);
                }
            };
            let plan = match ShardPlan::load(dir) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            match ShardPlan::digest_for(&text, plan.format, plan.detail) {
                Ok(d) if d == plan.digest => {}
                Ok(d) => {
                    eprintln!(
                        "error: spec digest mismatch between plan and run (plan {:016x}, \
                         {} digests to {d:016x}); refusing to run against a different spec",
                        plan.digest, opts.spec_path
                    );
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", opts.spec_path);
                    return ExitCode::from(2);
                }
            }
            let shard_id = opts.shard.unwrap();
            let runner = match ShardRunner::new(dir, plan, shard_id) {
                Ok(r) => r.threads(opts.threads.unwrap_or(1)).progress(opts.progress),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let summary = match runner.run(&Registry, opts.resume) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "shard {shard_id}: ran {} unit(s), {} row(s){}",
                summary.units_run,
                summary.rows,
                if summary.exhausted { "; plan exhausted" } else { "" }
            );
            if summary.failed > 0 {
                eprintln!("warning: {} scenario(s) failed to run", summary.failed);
                return ExitCode::FAILURE;
            }
            if summary.unclean > 0 {
                eprintln!("warning: {} run(s) violated a model invariant", summary.unclean);
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        cli::ShardAction::Merge => {
            let plan = match ShardPlan::load(dir) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let out = opts.out.clone().unwrap_or_else(|| {
                dir.join(format!("merged.{}", plan.format.name())).display().to_string()
            });
            match emac::core::shard::merge(dir, Path::new(&out)) {
                Ok(summary) => {
                    println!(
                        "merged {} row(s) from {} shard(s) into {out}",
                        summary.rows, summary.shards_merged
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        cli::ShardAction::Status => match emac::core::shard::status(dir) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}

fn run(args: &[String]) -> ExitCode {
    let opts = match cli::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let alg = match cli::make_algorithm(&opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = opts.to_spec();

    // Seed batch: one solo lane per seed, run as campaign rows over the
    // machine's cores, one verdict/digest row per lane in `--seeds` order.
    // Lane digests are exactly what `--seed <s>` solo runs print — CI
    // diffs the two.
    if let Some(seeds) = &opts.seeds {
        if opts.trace.is_some() {
            eprintln!(
                "error: --trace traces a single execution; it cannot be combined with --seeds"
            );
            return ExitCode::from(2);
        }
        let lanes: Vec<ScenarioSpec> = seeds.iter().map(|&seed| spec.clone().seed(seed)).collect();
        let result = Campaign::new().run(&lanes, &Registry);
        if let Some(e) = result.first_error() {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        println!("seed batch: {} lanes | {}", seeds.len(), spec.display_label());
        for (seed, report) in seeds.iter().zip(result.reports()) {
            let tripped =
                report.tripped_round.map_or(String::new(), |r| format!(" | tripped round {r}"));
            println!(
                "  seed {seed:>3} | {:<12} | digest {} | delivered {}/{} | max queue {} | invariants: {}{tripped}",
                format!("{:?}", report.stability.verdict),
                emac::core::digest::report_digest_hex(report),
                report.metrics.delivered,
                report.metrics.injected,
                report.max_queue(),
                report.violations,
            );
        }
        return if result.all_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    // Tracing requires direct simulator access; otherwise use the runner.
    // Both paths hand the algorithm's schedule (when oblivious) to the
    // registry, so schedule-aware adversaries work here too.
    if let Some(capacity) = opts.trace {
        use emac::sim::{SimConfig, Simulator, WakeMode};
        let cap = opts.cap.unwrap_or_else(|| alg.required_cap(opts.n));
        let mut cfg = SimConfig::new(opts.n, cap).adversary_type(opts.rho, opts.beta);
        if let Some(f) = &opts.faults {
            cfg = cfg.faults(f.clone());
        }
        let built = alg.build(opts.n);
        let schedule = match &built.wake {
            WakeMode::Scheduled(s) => Some(s.clone()),
            WakeMode::Adaptive => None,
        };
        let adversary = match Registry::make_adversary(&spec, schedule.as_ref()) {
            Ok(adv) => adv,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let mut sim = Simulator::new(cfg, built, adversary);
        sim.enable_trace(capacity);
        sim.run(opts.rounds);
        println!("last {capacity} rounds:");
        print!("{}", sim.trace().expect("enabled").render());
        println!(
            "delivered {}/{} | latency max {} | max queue {} | invariants: {}",
            sim.metrics().delivered,
            sim.metrics().injected,
            sim.metrics().delay.max(),
            sim.metrics().max_total_queued,
            sim.violations()
        );
        return if sim.violations().is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let report =
        match spec.runner().try_run_against(alg.as_ref(), |s| Registry::make_adversary(&spec, s)) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
    println!("{report}");
    if let Some(r) = report.tripped_round {
        println!("  probe: queue cap tripped at round {r}");
    }
    let m = &report.metrics;
    if m.jammed_rounds != 0 || m.crashes != 0 || m.deaf_rounds != 0 {
        println!(
            "  faults: {} jammed round(s), {} crash(es), {} deaf round(s)",
            m.jammed_rounds, m.crashes, m.deaf_rounds
        );
    }
    println!("  digest: {}", emac::core::digest::report_digest_hex(&report));
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
