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
//! `run` executes one scenario as a one-row campaign (one row per seed
//! with `--seeds`) and prints the standard run report. Its scenario flags
//! are read by the spec parser and, like any campaign row, it is validated
//! first; a panic inside it exits 2. `campaign`
//! executes a JSON scenario spec (see `emac campaign --example`) in
//! parallel and **streams** each result to `campaign.csv` (or
//! `campaign.jsonl` with `--format jsonl`) in constant memory, maintains
//! an fsync'd `campaign.ckpt` next to the output, and `--resume`
//! continues a killed (or `--limit`-bounded) campaign where it stopped.
//! It exits non-zero if any run violates a model invariant (useful in
//! CI).
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
//! `campaign` and `frontier` open a run's files as the shard worker does,
//! through `emac_core::output::Format::{open_campaign, open_map}`.
//!
//! Exit codes: 0 for a clean run; 1 for a run that failed, a violated
//! model invariant or an unclean probe; 2 for input refused before
//! anything ran. Every command returns `Result<ExitCode, Failure>`, and
//! `main` alone prints a `Failure` as one `error: …` line, followed by
//! the usage text when the command line itself was malformed.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

use emac::cli;
use emac::core::campaign::{
    campaign_digest, parse_campaign_spec, Campaign, ScenarioSpec, TallySink,
};
use emac::core::frontier::Frontier;
use emac::core::output::{Kind, Opened};
use emac::core::shard::{ShardPlan, ShardRunner};
use emac::core::{ObsReport, ObservedSink, Observer, RunKind, RunReport};
use emac::registry::{Registry, ADVERSARIES, ALGORITHMS};

/// Why a command stopped short. `main` alone prints it, as `error: ` and
/// its message, and exits with its code.
enum Failure {
    /// A malformed command line: exit 2, with the usage text after.
    Usage(String),
    /// Input refused before anything ran: exit 2.
    Refused(String),
    /// A run that failed once it started: exit 1.
    Failed(String),
}

/// `?` refuses input on a library error.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Refused(message)
    }
}

/// What every command returns: its exit code, or why it stopped short.
type Outcome = Result<ExitCode, Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command: fn(&[String]) -> Outcome = match args.first().map(String::as_str) {
        Some("run") => run,
        Some("campaign") => campaign,
        Some("frontier") => frontier,
        Some("shard") => shard,
        Some("obs") => obs,
        Some("list") => list,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    command(&args[1..]).unwrap_or_else(|failure| {
        let (code, message) = match failure {
            Failure::Usage(message) => (2, format!("{message}\n{USAGE}")),
            Failure::Refused(message) => (2, message),
            Failure::Failed(message) => (1, message),
        };
        eprintln!("error: {message}");
        ExitCode::from(code)
    })
}

const USAGE: &str =
    "usage:\n  emac run --alg <name> [--n <N>] [--k <K>] [--rho R] [--beta B]\n           \
     [--rounds R] [--adversary <name>] [--seed S] [--seeds A,B,C|N] [--drain R]\n           \
     [--trace N] [--cap C] [--target S] [--dest S] [--period R] [--horizon R]\n           \
     [--probe-cap Q] [--jam P/Q | --faults JSON]\n           \
     # a scenario flag takes what its spec key takes: --rho 1/5, 0.2 or\n           \
     # \"0.8 * k_cycle_threshold\"\n  \
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
     emac list";

fn list(_: &[String]) -> Outcome {
    println!("algorithms (--alg):");
    for (name, what) in ALGORITHMS {
        println!("  {name:<15} {what}");
    }
    println!("adversaries (--adversary):");
    for (name, what) in ADVERSARIES {
        println!("  {name:<15} {what}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The text of the file at `path`; one that cannot be read is refused
/// input.
fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}").into())
}

/// An error in the file at `path`, named by it.
fn in_file(path: &str) -> impl Fn(String) -> Failure + '_ {
    move |e| format!("{path}: {e}").into()
}

/// Create the output directory `dir`; a run that cannot has failed.
fn create_dir(dir: &str) -> Result<&Path, Failure> {
    std::fs::create_dir_all(dir).map_err(|e| Failure::Failed(format!("creating {dir}: {e}")))?;
    Ok(Path::new(dir))
}

/// Note the unrecorded output a previous run left, which the opener cut.
fn note_dropped(bytes: u64) {
    if bytes > 0 {
        eprintln!("note: dropped {bytes} bytes of unrecorded output from a previous run");
    }
}

/// A run that failed after `completed` rows were checkpointed, which a
/// resume continues from.
fn stopped(e: String, completed: usize, rows: &str) -> Failure {
    Failure::Failed(format!(
        "{e}\n{completed} {rows} checkpointed; rerun with --resume to continue"
    ))
}

/// Exit 0 for a clean run, 1 for one whose rows are not all clean.
fn exit(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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

fn campaign(args: &[String]) -> Outcome {
    let opts = cli::parse_campaign(args).map_err(Failure::Usage)?;
    if opts.example {
        println!("{EXAMPLE_SPEC}");
        return Ok(ExitCode::SUCCESS);
    }
    let path = &opts.spec_path;
    let specs = parse_campaign_spec(&read(path)?).map_err(in_file(path))?;

    let mut executor = Campaign::new().detail(opts.detail);
    if let Some(t) = opts.threads {
        executor = executor.threads(t);
    }

    // Rows of an unrecorded tail a crash left behind re-execute below.
    let dir = create_dir(&opts.out_dir)?;
    let digest = campaign_digest(&specs, opts.format, opts.detail);
    let Opened { checkpoint: mut ckpt, sink, out, dropped } =
        opts.format.open_campaign(dir, digest, specs.len(), opts.resume, false)?;
    note_dropped(dropped);
    let mut todo = ckpt.remaining();
    if todo.is_empty() {
        println!(
            "all {} scenarios already complete in {}; nothing to do",
            specs.len(),
            out.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    eprintln!(
        "running {} of {} scenarios ({} already complete)...",
        todo.len(),
        specs.len(),
        ckpt.completed()
    );
    // The observer sits strictly outside the row bytes: it wraps the sink,
    // so arming it cannot change what lands in the output or the digest.
    let events = opts.events.as_deref().map(Path::new);
    let total = todo.len() as u64;
    let obs = Observer::start_run(RunKind::Campaign, total, events, opts.resume, opts.progress);
    let obs = Mutex::new(obs.map_err(Failure::Failed)?);
    let mut sink = TallySink::new(ObservedSink::new(sink, &obs));
    let outcome = executor.run_subset(&specs, &todo, &Registry, &mut sink, Some(&mut ckpt));
    let (ok, unclean, failed) = (sink.ok(), sink.unclean(), sink.failed());
    let done = (ok + unclean + failed) as u64;
    if let Err(e) = obs.into_inner().expect("observer poisoned").finish_run(done) {
        eprintln!("warning: event log: {e}");
    }
    outcome.map_err(|e| stopped(e, ckpt.completed(), "scenarios"))?;
    println!(
        "{} of {} scenarios complete in {} ({} this run: {} ok, {} with violations, {} failed)",
        ckpt.completed(),
        specs.len(),
        out.display(),
        ok + unclean + failed,
        ok,
        unclean,
        failed
    );
    if ckpt.completed() < specs.len() {
        println!("rerun with --resume to continue");
    }
    Ok(exit(failed == 0 && unclean == 0))
}

/// `emac obs report`: aggregate one or more event logs into rate and
/// latency summaries. Exits non-zero on an unreadable file or a
/// malformed event line — a log that does not round-trip through the
/// parser is a bug, not noise to skip.
fn obs(args: &[String]) -> Outcome {
    let opts = cli::parse_obs(args).map_err(Failure::Usage)?;
    let mut report = ObsReport::default();
    for path in &opts.files {
        report.ingest(&read(path)?).map_err(in_file(path))?;
    }
    print!("{}", report.render());
    Ok(ExitCode::SUCCESS)
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
fn frontier(args: &[String]) -> Outcome {
    let opts = cli::parse_frontier(args).map_err(Failure::Usage)?;
    if opts.example {
        println!("{EXAMPLE_FRONTIER}");
        return Ok(ExitCode::SUCCESS);
    }
    // CLI overrides are read with the template, before the digest, so a
    // resume must repeat them.
    let path = &opts.spec_path;
    let spec = opts.spec(&read(path)?).map_err(in_file(path))?;

    // Rows of an unrecorded tail a crash left behind re-emit below.
    let dir = create_dir(&opts.out_dir)?;
    let digest = spec.digest(opts.format.file_name(Kind::Frontier));
    let points = spec.points().len();
    let Opened { checkpoint: mut ckpt, mut sink, out, dropped } =
        opts.format.open_map(dir, digest, points, opts.resume, false)?;
    note_dropped(dropped);
    let already = ckpt.rows_written();

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
    let events = opts.events.as_deref().map(Path::new);
    let remaining = (points - already) as u64;
    let mut observer =
        Observer::start_run(RunKind::Frontier, remaining, events, opts.resume, opts.progress)
            .map_err(Failure::Failed)?;
    let outcome =
        engine.run_into_observed(&spec, &Registry, sink.as_mut(), Some(&mut ckpt), &mut observer);
    let done = ckpt.rows_written().saturating_sub(already) as u64;
    if let Err(e) = observer.finish_run(done) {
        eprintln!("warning: event log: {e}");
    }
    let summary = outcome.map_err(|e| stopped(e, ckpt.rows_written(), "map point(s)"))?;
    let escalated = if summary.escalated_probes > 0 {
        format!(", {} escalated", summary.escalated_probes)
    } else {
        String::new()
    };
    println!(
        "{} of {} map point(s) complete in {} ({} probe(s), {} deep, this run{escalated})",
        summary.completed,
        summary.points,
        out.display(),
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
    }
    Ok(exit(summary.unclean_probes == 0))
}

fn shard(args: &[String]) -> Outcome {
    let opts = cli::parse_shard(args).map_err(Failure::Usage)?;
    let dir = Path::new(&opts.dir);
    match opts.action {
        cli::ShardAction::Plan => {
            let text = read(&opts.spec_path)?;
            let plan = ShardPlan::build(&text, opts.format, opts.detail, opts.shards.unwrap())?;
            plan.save(dir)?;
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
            Ok(ExitCode::SUCCESS)
        }
        cli::ShardAction::Run => {
            let path = &opts.spec_path;
            let text = read(path)?;
            let plan = ShardPlan::load(dir)?;
            let d =
                ShardPlan::digest_for(&text, plan.format, plan.detail).map_err(in_file(path))?;
            if d != plan.digest {
                return Err(format!(
                    "spec digest mismatch between plan and run (plan {:016x}, \
                     {path} digests to {d:016x}); refusing to run against a different spec",
                    plan.digest
                )
                .into());
            }
            let shard_id = opts.shard.unwrap();
            let runner = ShardRunner::new(dir, plan, shard_id)?
                .threads(opts.threads.unwrap_or(1))
                .progress(opts.progress);
            let summary = runner.run(&Registry, opts.resume).map_err(Failure::Failed)?;
            println!(
                "shard {shard_id}: ran {} unit(s), {} row(s){}",
                summary.units_run,
                summary.rows,
                if summary.exhausted { "; plan exhausted" } else { "" }
            );
            if summary.failed > 0 {
                eprintln!("warning: {} scenario(s) failed to run", summary.failed);
            } else if summary.unclean > 0 {
                eprintln!("warning: {} run(s) violated a model invariant", summary.unclean);
            }
            Ok(exit(summary.failed == 0 && summary.unclean == 0))
        }
        cli::ShardAction::Merge => {
            let plan = ShardPlan::load(dir)?;
            let out = opts.out.clone().unwrap_or_else(|| {
                dir.join(format!("merged.{}", plan.format.name())).display().to_string()
            });
            let summary = emac::core::shard::merge(dir, Path::new(&out))?;
            println!(
                "merged {} row(s) from {} shard(s) into {out}",
                summary.rows, summary.shards_merged
            );
            Ok(ExitCode::SUCCESS)
        }
        cli::ShardAction::Status => {
            print!("{}", emac::core::shard::status(dir)?);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn run(args: &[String]) -> Outcome {
    let opts = cli::parse(args).map_err(Failure::Usage)?;
    let spec = &opts.spec;
    if let Some(capacity) = opts.trace {
        if opts.seeds.is_some() {
            let e = "--trace traces a single execution; it cannot be combined with --seeds";
            return Err(e.to_string().into());
        }
        return trace(spec, capacity);
    }

    // Every other run is a campaign: one row for a solo run, or one solo
    // lane per seed of `--seeds`, over the machine's cores. So a run is
    // validated like a campaign row, and a panic inside it is its error.
    // Lane digests are exactly what `--seed <s>` solo runs print — CI
    // diffs the two.
    let lanes: Vec<ScenarioSpec> = match &opts.seeds {
        Some(seeds) => seeds.iter().map(|&seed| spec.clone().seed(seed)).collect(),
        None => vec![spec.clone()],
    };
    let result = Campaign::new().run(&lanes, &Registry);
    if let Some(e) = result.first_error() {
        return Err(e.to_string().into());
    }
    if let Some(seeds) = &opts.seeds {
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
    } else {
        print_report(result.reports().next().expect("the one row ran without an error"));
    }
    Ok(exit(result.all_clean()))
}

/// The report of one `emac run` execution, traced or not: the run report,
/// then the probe, fault and digest lines.
fn print_report(report: &RunReport) {
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
    println!("  digest: {}", emac::core::digest::report_digest_hex(report));
}

/// `emac run --trace N`: the run a campaign row would make of `spec`
/// (the same simulator and drive), on a simulator of its own, since the
/// trace ring lives in it. Prints the last `N` rounds, or all of them when
/// `N` exceeds the rounds the run can execute (`rounds + drain`), then the
/// report a solo run prints. The spec is validated first, as a campaign
/// row is; a panic inside the run still aborts.
fn trace(spec: &ScenarioSpec, capacity: usize) -> Outcome {
    let mut sim =
        spec.validate().and_then(|()| Registry::make_algorithm(spec)).and_then(|alg| {
            spec.simulator(alg.as_ref(), |schedule| Registry::make_adversary(spec, schedule))
        })?;
    let executable = spec.rounds.saturating_add(spec.drain.unwrap_or(0));
    let window = capacity.min(usize::try_from(executable).unwrap_or(usize::MAX));
    sim.enable_trace(window);
    let report = spec.drive(&mut sim);
    println!("last {window} rounds:");
    print!("{}", sim.trace().expect("enabled").render());
    print_report(&report);
    Ok(exit(report.clean()))
}
