//! Argument parsing and object construction for the `emac` CLI binary.
//!
//! Kept in the library so the mapping from flags to scenarios is
//! unit-testable; the binary in `src/bin/emac.rs` only does I/O. Name
//! resolution itself lives in [`crate::registry`] — the same registry the
//! campaign executor and the bench binaries use. `emac run` reads no
//! scenario value itself: its scenario flags become one scenario object,
//! which [`RawScenario`] reads as it reads a campaign row, and every range
//! check is [`ScenarioSpec::validate`]'s.

use emac_core::campaign::json::Json;
use emac_core::campaign::{MetricsDetail, RawScenario, ScenarioSpec};
use emac_core::frontier::FrontierSpec;
use emac_core::output::Format;

/// Parsed command-line options for `emac campaign`.
#[derive(Clone, Debug)]
pub struct CampaignOpts {
    /// Print the example spec and exit (`--example`).
    pub example: bool,
    /// Path to the JSON spec file.
    pub spec_path: String,
    /// Worker count override.
    pub threads: Option<usize>,
    /// Output directory (default `results/campaign`).
    pub out_dir: String,
    /// Output format (default CSV).
    pub format: Format,
    /// Per-scenario metrics detail.
    pub detail: MetricsDetail,
    /// Resume from `campaign.ckpt` instead of starting fresh.
    pub resume: bool,
    /// Run at most this many (remaining) scenarios, then stop with the
    /// checkpoint intact — bounded work chunks for long campaigns.
    pub limit: Option<usize>,
    /// Render a live progress line on stderr (`--progress`).
    pub progress: bool,
    /// Append structured observability events to this JSONL path
    /// (`--events`); `None` leaves the event log disarmed.
    pub events: Option<String>,
}

/// Parse `emac campaign` flags.
pub fn parse_campaign(args: &[String]) -> Result<CampaignOpts, String> {
    let mut o = CampaignOpts {
        example: false,
        spec_path: String::new(),
        threads: None,
        out_dir: "results/campaign".into(),
        format: Format::Csv,
        detail: MetricsDetail::Full,
        resume: false,
        limit: None,
        progress: false,
        events: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--example" => o.example = true,
            "--threads" => {
                o.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--out" => o.out_dir = value()?.to_string(),
            "--format" => o.format = Format::parse(value()?).map_err(|e| format!("--{e}"))?,
            "--detail" => {
                o.detail = MetricsDetail::parse(value()?).map_err(|e| format!("--{e}"))?
            }
            "--resume" => o.resume = true,
            "--limit" => o.limit = Some(value()?.parse().map_err(|e| format!("--limit: {e}"))?),
            "--progress" => o.progress = true,
            "--events" => o.events = Some(value()?.to_string()),
            path if o.spec_path.is_empty() && !path.starts_with("--") => {
                o.spec_path = path.to_string()
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if o.example {
        return Ok(o);
    }
    if o.spec_path.is_empty() {
        return Err("campaign needs a spec file (try `emac campaign --example`)".into());
    }
    if o.limit == Some(0) {
        return Err("--limit must be positive".into());
    }
    if o.threads == Some(0) {
        return Err("--threads must be positive".into());
    }
    Ok(o)
}

/// Parsed command-line options for `emac frontier`.
#[derive(Clone, Debug)]
pub struct FrontierOpts {
    /// Print the example template and exit (`--example`).
    pub example: bool,
    /// Path to the JSON frontier template.
    pub spec_path: String,
    /// Search-axis override (`--axis rho|beta|k|ell`); `None` keeps the
    /// template's axis.
    pub axis: Option<String>,
    /// Tolerance override (`--tol`); `None` keeps the template's.
    pub tol: Option<f64>,
    /// Seed-escalation override (`--escalate MAX[:STEP]`) as
    /// `(max_seeds, step)`; `None` keeps the template's rule.
    pub escalate: Option<(usize, usize)>,
    /// Worker count override.
    pub threads: Option<usize>,
    /// Output directory (default `results/frontier`).
    pub out_dir: String,
    /// Output format (default CSV).
    pub format: Format,
    /// Resume from `frontier.ckpt` instead of starting fresh.
    pub resume: bool,
    /// Start no probe deeper than this (see `Frontier::max_waves`), then
    /// stop with the checkpoint intact — bounded work chunks for wide maps.
    pub max_waves: Option<usize>,
    /// Render a live progress line on stderr (`--progress`).
    pub progress: bool,
    /// Append structured observability events to this JSONL path
    /// (`--events`); `None` leaves the event log disarmed.
    pub events: Option<String>,
}

impl FrontierOpts {
    /// The frontier spec the template `text` and these flags describe.
    /// `--axis`, `--tol` and `--escalate` replace the template keys they
    /// override before the spec is read, so the template is validated
    /// once, under the axis, tolerance and rule the map runs with.
    pub fn spec(&self, text: &str) -> Result<FrontierSpec, String> {
        let mut overrides = Vec::new();
        if let Some(axis) = &self.axis {
            overrides.push(("axis", Json::Str(axis.clone())));
        }
        if let Some(tol) = self.tol {
            overrides.push(("tol", Json::Float(tol)));
        }
        if let Some((max_seeds, step)) = self.escalate {
            let int = |v: usize| {
                i64::try_from(v).map(Json::Int).map_err(|_| format!("--escalate {v} is too large"))
            };
            let rule = vec![("max_seeds".into(), int(max_seeds)?), ("step".into(), int(step)?)];
            overrides.push(("escalate", Json::Obj(rule)));
        }
        let mut doc = Json::parse(text)?;
        if let Json::Obj(members) = &mut doc {
            for (key, value) in overrides {
                members.retain(|(k, _)| k != key);
                members.push((key.into(), value));
            }
        }
        FrontierSpec::from_json(&doc)
    }
}

/// Parse `emac frontier` flags.
pub fn parse_frontier(args: &[String]) -> Result<FrontierOpts, String> {
    let mut o = FrontierOpts {
        example: false,
        spec_path: String::new(),
        axis: None,
        tol: None,
        escalate: None,
        threads: None,
        out_dir: "results/frontier".into(),
        format: Format::Csv,
        resume: false,
        max_waves: None,
        progress: false,
        events: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--example" => o.example = true,
            "--axis" => o.axis = Some(value()?.to_string()),
            "--tol" => o.tol = Some(value()?.parse().map_err(|e| format!("--tol: {e}"))?),
            "--escalate" => o.escalate = Some(parse_escalate(value()?)?),
            "--threads" => {
                o.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--out" => o.out_dir = value()?.to_string(),
            "--format" => o.format = Format::parse(value()?).map_err(|e| format!("--{e}"))?,
            "--resume" => o.resume = true,
            "--max-waves" => {
                o.max_waves = Some(value()?.parse().map_err(|e| format!("--max-waves: {e}"))?)
            }
            "--progress" => o.progress = true,
            "--events" => o.events = Some(value()?.to_string()),
            path if o.spec_path.is_empty() && !path.starts_with("--") => {
                o.spec_path = path.to_string()
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if o.example {
        return Ok(o);
    }
    if o.spec_path.is_empty() {
        return Err("frontier needs a template file (try `emac frontier --example`)".into());
    }
    if o.max_waves == Some(0) {
        return Err("--max-waves must be positive".into());
    }
    if o.threads == Some(0) {
        return Err("--threads must be positive".into());
    }
    Ok(o)
}

/// Which `emac shard` sub-action was requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardAction {
    /// `emac shard plan SPEC --dir DIR --shards D`: write the plan and
    /// empty lease directory.
    Plan,
    /// `emac shard run SPEC --dir DIR --shard S`: execute one shard.
    Run,
    /// `emac shard merge --dir DIR [--out FILE]`: stitch shard outputs.
    Merge,
    /// `emac shard status --dir DIR`: progress report.
    Status,
}

/// Parsed command-line options for `emac shard`.
#[derive(Clone, Debug)]
pub struct ShardOpts {
    /// The sub-action (first positional argument).
    pub action: ShardAction,
    /// Spec path (`plan` and `run` — `run` re-reads it so its digest can
    /// be checked against the plan's).
    pub spec_path: String,
    /// Shared plan directory (`--dir`, required everywhere).
    pub dir: String,
    /// Shard count (`--shards`, `plan` only).
    pub shards: Option<usize>,
    /// Shard id (`--shard`, `run` only).
    pub shard: Option<usize>,
    /// Output format (`--format`, `plan` only; baked into the plan).
    pub format: Format,
    /// Metric detail (`--detail`, `plan` only; baked into the plan).
    pub detail: MetricsDetail,
    /// Resume this shard's checkpoint (`--resume`, `run` only).
    pub resume: bool,
    /// Worker-thread override (`--threads`, `run` only).
    pub threads: Option<usize>,
    /// Merged-output path override (`--out`, `merge` only).
    pub out: Option<String>,
    /// Render a live progress line on stderr (`--progress`, `run` only).
    /// The per-shard event log under `shard-S/events.jsonl` is always on.
    pub progress: bool,
}

/// Parse `emac shard` flags. The first positional names the action;
/// which flags are legal (and required) depends on it.
pub fn parse_shard(args: &[String]) -> Result<ShardOpts, String> {
    let mut it = args.iter();
    let action = match it.next().map(String::as_str) {
        Some("plan") => ShardAction::Plan,
        Some("run") => ShardAction::Run,
        Some("merge") => ShardAction::Merge,
        Some("status") => ShardAction::Status,
        Some(other) => {
            return Err(format!("unknown shard action {other:?} (plan, run, merge, status)"))
        }
        None => return Err("shard needs an action (plan, run, merge, status)".into()),
    };
    let mut o = ShardOpts {
        action,
        spec_path: String::new(),
        dir: String::new(),
        shards: None,
        shard: None,
        format: Format::Csv,
        detail: MetricsDetail::Full,
        resume: false,
        threads: None,
        out: None,
        progress: false,
    };
    let takes_spec = matches!(action, ShardAction::Plan | ShardAction::Run);
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{arg} needs a value"));
        let wrong = |flag: &str, action: &str| format!("{flag} is only for `emac shard {action}`");
        match arg.as_str() {
            "--dir" => o.dir = value()?.to_string(),
            "--shards" if action == ShardAction::Plan => {
                o.shards = Some(value()?.parse().map_err(|e| format!("--shards: {e}"))?)
            }
            "--shards" => return Err(wrong("--shards", "plan")),
            "--shard" if action == ShardAction::Run => {
                o.shard = Some(value()?.parse().map_err(|e| format!("--shard: {e}"))?)
            }
            "--shard" => return Err(wrong("--shard", "run")),
            "--format" if action == ShardAction::Plan => {
                o.format = Format::parse(value()?).map_err(|e| format!("--{e}"))?
            }
            "--format" => return Err(wrong("--format", "plan")),
            "--detail" if action == ShardAction::Plan => {
                o.detail = MetricsDetail::parse(value()?).map_err(|e| format!("--{e}"))?
            }
            "--detail" => return Err(wrong("--detail", "plan")),
            "--resume" if action == ShardAction::Run => o.resume = true,
            "--resume" => return Err(wrong("--resume", "run")),
            "--threads" if action == ShardAction::Run => {
                o.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--threads" => return Err(wrong("--threads", "run")),
            "--out" if action == ShardAction::Merge => o.out = Some(value()?.to_string()),
            "--out" => return Err(wrong("--out", "merge")),
            "--progress" if action == ShardAction::Run => o.progress = true,
            "--progress" => return Err(wrong("--progress", "run")),
            path if takes_spec && o.spec_path.is_empty() && !path.starts_with("--") => {
                o.spec_path = path.to_string()
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if takes_spec && o.spec_path.is_empty() {
        return Err("shard plan/run need a spec file".into());
    }
    if o.dir.is_empty() {
        return Err("--dir is required".into());
    }
    if action == ShardAction::Plan && o.shards.is_none() {
        return Err("shard plan needs --shards".into());
    }
    if o.shards == Some(0) {
        return Err("--shards must be positive".into());
    }
    if action == ShardAction::Run && o.shard.is_none() {
        return Err("shard run needs --shard".into());
    }
    if o.threads == Some(0) {
        return Err("--threads must be positive".into());
    }
    Ok(o)
}

/// Parsed command-line options for `emac obs`.
#[derive(Clone, Debug)]
pub struct ObsOpts {
    /// Event-log paths to aggregate (`emac obs report FILE...`). One
    /// report covers all of them, so a fleet's shard logs can be summed.
    pub files: Vec<String>,
}

/// Parse `emac obs` flags. The only action today is `report`, which
/// aggregates one or more `events.jsonl` files into rate and latency
/// summaries.
pub fn parse_obs(args: &[String]) -> Result<ObsOpts, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("report") => {}
        Some(other) => return Err(format!("unknown obs action {other:?} (report)")),
        None => return Err("obs needs an action (report)".into()),
    }
    let files: Vec<String> = it.map(String::clone).collect();
    if files.is_empty() {
        return Err("obs report needs at least one events.jsonl path".into());
    }
    if let Some(flag) = files.iter().find(|f| f.starts_with("--")) {
        return Err(format!("unexpected argument {flag}"));
    }
    Ok(ObsOpts { files })
}

/// Parsed command-line options for `emac run`: one scenario, and how to
/// run it.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The scenario the flags describe. A flag left out keeps
    /// [`ScenarioSpec::new`]'s default; the adversary defaults to
    /// `uniform`.
    pub spec: ScenarioSpec,
    /// Seed batch (`--seeds`): run one solo lane per seed as a campaign row
    /// and print per-lane verdict/digest rows, in the given seed order,
    /// instead of one full report.
    pub seeds: Option<Vec<u64>>,
    /// Trace window (`--trace N`, positive): run the scenario on one
    /// simulator with the last `N` rounds kept, and print them before the
    /// report.
    pub trace: Option<usize>,
}

/// The `emac run` flags whose value is the text of a scenario key, with
/// that key. `--faults` takes the JSON of a `faults` object, and `--jam
/// P/Q` sets `faults.jam`.
const SCENARIO_FLAGS: [(&str, &str); 15] = [
    ("--alg", "algorithm"),
    ("--adversary", "adversary"),
    ("--n", "n"),
    ("--k", "k"),
    ("--rho", "rho"),
    ("--beta", "beta"),
    ("--rounds", "rounds"),
    ("--seed", "seed"),
    ("--drain", "drain"),
    ("--cap", "cap"),
    ("--target", "target"),
    ("--dest", "dest"),
    ("--period", "period"),
    ("--horizon", "horizon"),
    ("--probe-cap", "probe_cap"),
];

/// Parse `emac run` flags. The scenario flags become one scenario object,
/// read by the spec parser as a campaign row is ([`RawScenario`]): each
/// value is the text of its key (`--faults` the JSON of its object), so
/// `--rho` and `--beta` take expressions, and a repeated flag means its
/// last value. Ranges are left to [`ScenarioSpec::validate`], which every
/// run calls.
pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut scenario = vec![("adversary".to_string(), Json::Str("uniform".into()))];
    let mut seeds = None;
    let mut trace = None;
    let mut jam = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => seeds = Some(parse_seeds(value()?)?),
            "--trace" => trace = Some(value()?.parse().map_err(|e| format!("--trace: {e}"))?),
            "--jam" => jam = Some(Json::Str(value()?.to_string())),
            "--faults" => {
                let faults = Json::parse(value()?).map_err(|e| format!("--faults: {e}"))?;
                scenario.push(("faults".into(), faults));
            }
            other => {
                let (_, key) = SCENARIO_FLAGS
                    .iter()
                    .find(|(f, _)| *f == other)
                    .ok_or_else(|| format!("unknown flag {other}"))?;
                scenario.push((key.to_string(), Json::Str(value()?.to_string())));
            }
        }
    }
    if trace == Some(0) {
        return Err("--trace must be positive".into());
    }
    if let Some(jam) = jam {
        if scenario.iter().any(|(key, _)| key == "faults") {
            return Err(
                "--jam conflicts with --faults (set \"jam\" inside the --faults object)".into()
            );
        }
        scenario.push(("faults".into(), Json::Obj(vec![("jam".into(), jam)])));
    }
    let spec = RawScenario::parse(&Json::Obj(scenario))?.resolve()?;
    Ok(Opts { spec, seeds, trace })
}

/// Parse `--seeds`: either an explicit comma-separated list (`--seeds
/// 3,17,17` — duplicates are legal, lanes are independent) or a count
/// (`--seeds 8` means seeds `0..8`).
pub fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    if s.contains(',') {
        return s
            .split(',')
            .map(|part| part.trim().parse().map_err(|e| format!("--seeds {part:?}: {e}")))
            .collect();
    }
    let count: u64 = s.parse().map_err(|e| format!("--seeds: {e}"))?;
    if count == 0 {
        return Err("--seeds needs at least one seed".into());
    }
    Ok((0..count).collect())
}

/// Parse `--escalate MAX[:STEP]` into `(max_seeds, step)`; the step
/// defaults to 1. Both values must be positive; validation against the
/// template's seed count (MAX below the base ensemble) happens in
/// [`FrontierSpec::validate`](emac_core::frontier::FrontierSpec::validate).
pub fn parse_escalate(s: &str) -> Result<(usize, usize), String> {
    let (max, step) = match s.split_once(':') {
        Some((max, step)) => {
            (max, step.trim().parse().map_err(|e| format!("--escalate step {step:?}: {e}"))?)
        }
        None => (s, 1),
    };
    let max: usize = max.trim().parse().map_err(|e| format!("--escalate {max:?}: {e}"))?;
    if max == 0 {
        return Err("--escalate max seed count must be positive".into());
    }
    if step == 0 {
        return Err("--escalate step must be positive".into());
    }
    Ok((max, step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use emac_sim::{FaultSpec, Rate};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse(&argv(
            "--alg k-cycle --n 9 --k 3 --rho 1/5 --beta 4 --rounds 5000 \
             --adversary round-robin --seed 9 --drain 1000 --cap 4",
        ))
        .unwrap();
        assert_eq!(o.spec.algorithm, "k-cycle");
        assert_eq!((o.spec.n, o.spec.k, o.spec.rounds, o.spec.seed), (9, 3, 5000, 9));
        assert_eq!(o.spec.rho, Rate::new(1, 5));
        assert_eq!(o.spec.beta, Rate::integer(4));
        assert_eq!(o.spec.drain, Some(1000));
        assert_eq!(o.spec.cap, Some(4));
        assert!(Registry::make_algorithm(&o.spec).is_ok());
        assert!(Registry::make_adversary(&o.spec, None).is_ok());
    }

    #[test]
    fn opts_convert_to_scenario_spec() {
        let o = parse(&argv(
            "--alg k-clique --n 8 --k 4 --rho 1/10 --beta 3/2 --rounds 777 \
             --adversary bursty --target 2 --period 32 --seed 5",
        ))
        .unwrap();
        let spec = o.spec;
        assert_eq!(spec.algorithm, "k-clique");
        assert_eq!(spec.adversary, "bursty");
        assert_eq!((spec.n, spec.k, spec.rounds, spec.seed), (8, 4, 777, 5));
        assert_eq!(spec.beta, Rate::new(3, 2));
        assert_eq!(spec.target, Some(2));
        assert_eq!(spec.period, Some(32));
        // Flags left out keep the scenario defaults, with the uniform adversary.
        let spec = parse(&argv("--alg k-cycle")).unwrap().spec;
        assert_eq!(spec, ScenarioSpec::new("k-cycle", "uniform"));
        // A repeated flag means its last value.
        let spec = parse(&argv("--alg k-cycle --n 4 --rho 1/4 --n 9 --rho 1/5")).unwrap().spec;
        assert_eq!(spec, ScenarioSpec::new("k-cycle", "uniform").n(9).rho(Rate::new(1, 5)));
    }

    /// Each of the 17 flags that set a scenario field, given a literal
    /// value, gives the spec the equivalent scenario object gives.
    #[test]
    fn scenario_flags_read_like_scenario_objects() {
        let cases = [
            ("--alg", "k-clique", r#""algorithm": "k-clique""#),
            ("--adversary", "bursty", r#""adversary": "bursty""#),
            ("--n", "9", r#""n": 9"#),
            ("--k", "4", r#""k": 4"#),
            ("--rho", "3/4", r#""rho": "3/4""#),
            ("--beta", "3/2", r#""beta": "3/2""#),
            ("--rounds", "5000", r#""rounds": 5000"#),
            ("--seed", "9", r#""seed": 9"#),
            ("--drain", "1000", r#""drain": 1000"#),
            ("--cap", "4", r#""cap": 4"#),
            ("--target", "2", r#""target": 2"#),
            ("--dest", "1", r#""dest": 1"#),
            ("--period", "32", r#""period": 32"#),
            ("--horizon", "64", r#""horizon": 64"#),
            ("--probe-cap", "500", r#""probe_cap": 500"#),
            ("--faults", r#"{"jam": "1/8", "seed": 7}"#, r#""faults": {"jam": "1/8", "seed": 7}"#),
            ("--jam", "1/10", r#""faults": {"jam": "1/10"}"#),
        ];
        for (flag, value, key) in cases {
            let mut args = vec![flag.to_string(), value.to_string()];
            let mut members = vec![key.to_string()];
            if flag != "--alg" {
                args.extend(["--alg".into(), "k-cycle".into()]);
                members.push(r#""algorithm": "k-cycle""#.into());
            }
            if flag != "--adversary" {
                members.push(r#""adversary": "uniform""#.into());
            }
            let from_flags = parse(&args).unwrap().spec;
            let object = Json::parse(&format!("{{{}}}", members.join(", "))).unwrap();
            let from_object = ScenarioSpec::from_json(&object).unwrap();
            assert_eq!(from_flags, from_object, "{flag} {value}");
            assert_ne!(from_flags, ScenarioSpec::new("k-cycle", "uniform"), "{flag} is a no-op");
        }
    }

    #[test]
    fn seeds_forms() {
        let o = parse(&argv("--alg k-cycle --seeds 0,3,17")).unwrap();
        assert_eq!(o.seeds.as_deref(), Some(&[0, 3, 17][..]));
        let o = parse(&argv("--alg k-cycle --seeds 4")).unwrap();
        assert_eq!(o.seeds.as_deref(), Some(&[0, 1, 2, 3][..]));
        assert_eq!(parse(&argv("--alg k-cycle")).unwrap().seeds, None);
        assert!(parse(&argv("--alg k-cycle --seeds 0")).is_err(), "empty range");
        assert!(parse(&argv("--alg k-cycle --seeds 1,x")).is_err(), "bad list entry");
        assert!(parse(&argv("--alg k-cycle --seeds")).is_err(), "missing value");
    }

    #[test]
    fn rate_forms() {
        let spec = |flags: &str| parse(&argv(&format!("--alg k-cycle {flags}"))).map(|o| o.spec);
        assert_eq!(spec("--rho 1").unwrap().rho, Rate::one());
        assert_eq!(spec("--rho 3/4").unwrap().rho, Rate::new(3, 4));
        assert_eq!(spec("--rho 0.25").unwrap().rho, Rate::new(1, 4));
        // a rate above 1 reads, and validate refuses it, as in a campaign row
        for flags in ["--rho 5/4", "--rho 2.0"] {
            let err = spec(flags).unwrap().validate().unwrap_err();
            assert!(err.ends_with("rho exceeds 1"), "{flags}: {err}");
        }
        assert!(spec("--rho x").is_err());
        assert!(spec("--rho 1/0").is_err());
        // beta may exceed 1
        assert_eq!(spec("--beta 3/2").unwrap().beta, Rate::new(3, 2));
        assert_eq!(spec("--beta 4").unwrap().beta, Rate::integer(4));
        assert!(spec("--beta x").is_err());
    }

    #[test]
    fn rate_flags_take_expressions_and_exact_decimals() {
        let run = |flag: &str, value: &str| {
            let args = ["--alg", "k-cycle", "--n", "9", "--k", "3", flag, value];
            parse(&args.map(String::from)).unwrap().spec
        };
        assert_eq!(run("--rho", "0.8 * k_cycle_threshold").rho, Rate::new(1, 5));
        assert_eq!(run("--beta", "k - 1").beta, Rate::integer(2));
        // A decimal reads exactly wherever it is written.
        let want = Rate::new(2469, 20_000);
        assert_eq!(run("--rho", "0.12345").rho, want);
        for rho in [r#""0.12345""#, "0.12345", r#""0.12345 * 1""#] {
            let object = format!(r#"{{"algorithm": "a", "adversary": "b", "rho": {rho}}}"#);
            let spec = ScenarioSpec::from_json(&Json::parse(&object).unwrap()).unwrap();
            assert_eq!(spec.rho, want, "{rho}");
        }
    }

    #[test]
    fn parses_campaign_flags() {
        let o = parse_campaign(&argv(
            "spec.json --threads 4 --out results/x --format jsonl --detail slim --resume --limit 20",
        ))
        .unwrap();
        assert_eq!(o.spec_path, "spec.json");
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.out_dir, "results/x");
        assert_eq!(o.format, Format::JsonLines);
        assert_eq!(o.detail, MetricsDetail::Slim);
        assert!(o.resume);
        assert_eq!(o.limit, Some(20));
        // every format and detail parses back from its own name
        for format in [Format::Csv, Format::JsonLines] {
            for detail in [MetricsDetail::Full, MetricsDetail::Slim] {
                let flags =
                    format!("spec.json --format {} --detail {}", format.name(), detail.name());
                let o = parse_campaign(&argv(&flags)).unwrap();
                assert_eq!((o.format, o.detail), (format, detail), "{flags}");
            }
        }

        let o = parse_campaign(&argv("spec.json")).unwrap();
        assert_eq!(o.format, Format::Csv, "defaults to CSV");
        assert_eq!(o.detail, MetricsDetail::Full);
        assert!(!o.resume && o.limit.is_none());
        assert!(!o.progress && o.events.is_none(), "observability defaults off");
        assert!(parse_campaign(&argv("--example")).unwrap().example);

        let o = parse_campaign(&argv("spec.json --progress --events ev.jsonl")).unwrap();
        assert!(o.progress);
        assert_eq!(o.events.as_deref(), Some("ev.jsonl"));
        assert!(parse_campaign(&argv("spec.json --events")).is_err(), "missing value");
    }

    #[test]
    fn campaign_flag_validation() {
        assert!(parse_campaign(&argv("")).unwrap_err().contains("spec file"));
        let o = parse_campaign(&argv("spec.json --resume --limit 5")).unwrap();
        assert!(o.resume && o.limit == Some(5), "--resume/--limit parse without --format");
        assert_eq!(
            parse_campaign(&argv("spec.json --format xml")).unwrap_err(),
            "--format must be csv or jsonl, got \"xml\""
        );
        assert_eq!(
            parse_campaign(&argv("spec.json --detail tiny")).unwrap_err(),
            "--detail must be full or slim, got \"tiny\""
        );
        // only the exact names parse
        for bad in ["", "CSV", "json", "jsonl ", "slim"] {
            assert!(Format::parse(bad).is_err(), "format {bad:?}");
        }
        for bad in ["", "FULL", "slim ", "csv"] {
            assert!(MetricsDetail::parse(bad).is_err(), "detail {bad:?}");
        }
        assert!(parse_campaign(&argv("spec.json --format csv --limit 0"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_campaign(&argv("spec.json --threads 0")).unwrap_err().contains("positive"));
        assert!(parse_campaign(&argv("spec.json --bogus")).is_err());
        assert!(parse_campaign(&argv("a.json b.json")).is_err(), "two positionals");
    }

    #[test]
    fn parses_frontier_flags() {
        let o = parse_frontier(&argv(
            "map.json --axis rho --tol 0.001 --threads 4 --out results/f \
             --format jsonl --resume --max-waves 3",
        ))
        .unwrap();
        assert_eq!(o.spec_path, "map.json");
        assert_eq!(o.axis.as_deref(), Some("rho"));
        assert_eq!(o.tol, Some(0.001));
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.out_dir, "results/f");
        assert_eq!(o.format, Format::JsonLines);
        assert!(o.resume);
        assert_eq!(o.max_waves, Some(3));

        let o = parse_frontier(&argv("map.json")).unwrap();
        assert_eq!(o.format, Format::Csv);
        assert!(o.axis.is_none() && o.tol.is_none() && o.escalate.is_none() && !o.resume);
        assert!(!o.progress && o.events.is_none(), "observability defaults off");
        assert!(parse_frontier(&argv("--example")).unwrap().example);

        let o = parse_frontier(&argv("map.json --progress --events ev.jsonl")).unwrap();
        assert!(o.progress);
        assert_eq!(o.events.as_deref(), Some("ev.jsonl"));
        assert!(parse_frontier(&argv("map.json --events")).is_err(), "missing value");
    }

    #[test]
    fn frontier_flag_validation() {
        assert!(parse_frontier(&argv("")).unwrap_err().contains("template"));
        assert!(parse_frontier(&argv("map.json --format xml")).unwrap_err().contains("csv"));
        assert!(parse_frontier(&argv("map.json --tol x")).is_err());
        assert!(parse_frontier(&argv("map.json --max-waves 0")).unwrap_err().contains("positive"));
        assert!(parse_frontier(&argv("map.json --threads 0")).unwrap_err().contains("positive"));
        assert!(parse_frontier(&argv("a.json b.json")).is_err(), "two positionals");
    }

    #[test]
    fn escalate_forms() {
        let o = parse_frontier(&argv("map.json --escalate 9")).unwrap();
        assert_eq!(o.escalate, Some((9, 1)), "step defaults to 1");
        let o = parse_frontier(&argv("map.json --escalate 9:2")).unwrap();
        assert_eq!(o.escalate, Some((9, 2)));
        assert!(parse_frontier(&argv("map.json --escalate x")).is_err());
        assert!(parse_frontier(&argv("map.json --escalate 9:x")).is_err());
        assert!(parse_frontier(&argv("map.json --escalate")).is_err(), "missing value");
    }

    #[test]
    fn escalate_rejects_malformed_arguments() {
        let err = parse_frontier(&argv("map.json --escalate 0")).unwrap_err();
        assert!(err.contains("positive"), "zero max: {err}");
        let err = parse_frontier(&argv("map.json --escalate 9:0")).unwrap_err();
        assert!(err.contains("step must be positive"), "zero step: {err}");
        assert!(parse_escalate("-3").is_err(), "negative max");
        assert!(parse_escalate("9:-1").is_err(), "negative step");
        assert!(parse_escalate("9:2:4").is_err(), "extra component");
        assert!(parse_escalate("").is_err(), "empty");
        assert!(parse_escalate(":").is_err(), "bare separator");
        // MAX below the template's seed count parses here; the frontier
        // spec's validate() rejects it with full context.
        assert_eq!(parse_escalate("1").unwrap(), (1, 1));
    }

    #[test]
    fn parses_shard_flags() {
        let o = parse_shard(&argv(
            "plan spec.json --dir results/shards --shards 3 --format jsonl --detail slim",
        ))
        .unwrap();
        assert_eq!(o.action, ShardAction::Plan);
        assert_eq!(o.spec_path, "spec.json");
        assert_eq!(o.dir, "results/shards");
        assert_eq!(o.shards, Some(3));
        assert_eq!(o.format, Format::JsonLines);
        assert_eq!(o.detail, MetricsDetail::Slim);

        let o = parse_shard(&argv(
            "run spec.json --dir results/shards --shard 1 --resume --threads 2 --progress",
        ))
        .unwrap();
        assert_eq!(o.action, ShardAction::Run);
        assert_eq!(o.shard, Some(1));
        assert!(o.resume);
        assert_eq!(o.threads, Some(2));
        assert!(o.progress);

        let o = parse_shard(&argv("merge --dir results/shards --out merged.csv")).unwrap();
        assert_eq!(o.action, ShardAction::Merge);
        assert_eq!(o.out.as_deref(), Some("merged.csv"));

        let o = parse_shard(&argv("status --dir results/shards")).unwrap();
        assert_eq!(o.action, ShardAction::Status);
    }

    #[test]
    fn shard_flag_validation() {
        let err = parse_shard(&argv("prune --dir d")).unwrap_err();
        assert!(err.contains("unknown shard action"), "{err}");
        assert!(parse_shard(&argv("")).unwrap_err().contains("needs an action"));
        assert!(parse_shard(&argv("plan --dir d --shards 2")).unwrap_err().contains("spec file"));
        assert!(parse_shard(&argv("plan s.json --shards 2")).unwrap_err().contains("--dir"));
        assert!(parse_shard(&argv("plan s.json --dir d")).unwrap_err().contains("--shards"));
        assert!(parse_shard(&argv("plan s.json --dir d --shards 0"))
            .unwrap_err()
            .contains("--shards must be positive"));
        assert!(parse_shard(&argv("run s.json --dir d")).unwrap_err().contains("--shard"));
        assert!(parse_shard(&argv("run s.json --dir d --shard 0 --threads 0"))
            .unwrap_err()
            .contains("--threads must be positive"));
        assert!(parse_shard(&argv("merge")).unwrap_err().contains("--dir"));
        // flags are action-scoped
        assert!(parse_shard(&argv("merge --dir d --shards 2"))
            .unwrap_err()
            .contains("only for `emac shard plan`"));
        assert!(parse_shard(&argv("plan s.json --dir d --shards 2 --resume"))
            .unwrap_err()
            .contains("only for `emac shard run`"));
        assert!(parse_shard(&argv("run s.json --dir d --shard 0 --out x"))
            .unwrap_err()
            .contains("only for `emac shard merge`"));
        assert!(parse_shard(&argv("merge --dir d --progress"))
            .unwrap_err()
            .contains("only for `emac shard run`"));
        assert!(parse_shard(&argv("merge --dir d extra.json")).is_err(), "stray positional");
        assert!(parse_shard(&argv("plan a.json b.json --dir d --shards 2")).is_err());
        assert!(parse_shard(&argv("plan s.json --dir d --shards x")).is_err());
        assert!(parse_shard(&argv("plan s.json --dir d --shards")).is_err(), "missing value");
    }

    #[test]
    fn parses_obs_flags() {
        let o = parse_obs(&argv("report a/events.jsonl b/events.jsonl")).unwrap();
        assert_eq!(o.files, vec!["a/events.jsonl".to_string(), "b/events.jsonl".to_string()]);
        assert!(parse_obs(&argv("")).unwrap_err().contains("needs an action"));
        assert!(parse_obs(&argv("tail ev.jsonl")).unwrap_err().contains("unknown obs action"));
        assert!(parse_obs(&argv("report")).unwrap_err().contains("at least one"));
        assert!(parse_obs(&argv("report --json")).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn fault_flags() {
        let o = parse(&argv("--alg k-cycle --jam 1/10")).unwrap();
        let f = o.spec.faults.expect("--jam implies a fault spec");
        assert_eq!(f.jam, Rate::new(1, 10));
        assert_eq!(FaultSpec { jam: Rate::new(1, 10), ..Default::default() }, f);

        let json = r#"{"jam":"1/8","crash":"1/500","crash_len":32,"seed":7}"#;
        let o = parse(&["--alg".into(), "k-cycle".into(), "--faults".into(), json.into()]).unwrap();
        let f = o.spec.faults.unwrap();
        assert_eq!(
            (f.jam, f.crash, f.crash_len, f.seed),
            (Rate::new(1, 8), Rate::new(1, 500), 32, 7)
        );

        assert!(parse(&argv("--alg k-cycle")).unwrap().spec.faults.is_none());
        assert!(parse(&argv("--alg k-cycle --jam 3/2")).is_err(), "super-unit rate");
        assert!(parse(&argv("--alg k-cycle --jam x")).is_err(), "garbage rate");
        let err = parse(&[
            "--alg".into(),
            "k-cycle".into(),
            "--jam".into(),
            "1/10".into(),
            "--faults".into(),
            "{}".into(),
        ])
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        let faults = |json: &str| parse(&["--alg", "k-cycle", "--faults", json].map(String::from));
        assert!(faults("{\"bogus\":1}").is_err(), "unknown fault key");
        assert!(faults("not json").is_err());
    }

    #[test]
    fn probe_cap_flag() {
        let o = parse(&argv("--alg k-cycle --probe-cap 500")).unwrap();
        assert_eq!(o.spec.probe_cap, Some(500));
        let o = parse(&argv("--alg k-cycle --probe-cap 0")).unwrap();
        assert!(o.spec.validate().unwrap_err().contains("positive"));
        assert!(parse(&argv("--alg k-cycle --probe-cap x")).is_err());
    }

    /// A zero probe cap is refused with one message wherever a scenario
    /// is read: by `emac run`, by a campaign row and by a frontier template.
    #[test]
    fn a_zero_probe_cap_is_refused_alike_everywhere() {
        const WANT: &str = "probe_cap must be positive";
        let scenario = r#""algorithm": "k-cycle", "adversary": "uniform", "n": 9, "k": 3,
                          "rounds": 20000, "probe_cap": 0"#;
        let flags = parse(&argv("--alg k-cycle --n 9 --k 3 --rounds 20000 --probe-cap 0"));
        let run = flags.unwrap().spec.validate().unwrap_err();
        let row = emac_core::campaign::parse_campaign_spec(&format!("[{{{scenario}}}]"));
        let template = format!(r#"{{"template": {{{scenario}}}, "lo": "0", "hi": "1/2"}}"#);
        let map = FrontierSpec::parse(&template).and_then(|map| map.validate()).unwrap_err();
        for err in [run, row.unwrap_err(), map] {
            assert!(err.contains("k-cycle vs uniform | n=9 k=3 ") && err.ends_with(WANT), "{err}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("--n 4")).is_err(), "missing --alg");
        let o = parse(&argv("--alg count-hop --n 1")).unwrap();
        assert!(o.spec.validate().unwrap_err().ends_with("n must be at least 2"), "n too small");
        assert!(parse(&argv("--alg count-hop --bogus 1")).is_err(), "unknown flag");
        assert!(parse(&argv("--alg count-hop --n")).is_err(), "missing value");
        let err = parse(&argv("--alg count-hop --trace 0")).unwrap_err();
        assert_eq!(err, "--trace must be positive");
        let o = parse(&argv("--alg nope")).unwrap();
        assert!(Registry::make_algorithm(&o.spec).is_err());
        let o = parse(&argv("--alg count-hop --adversary nope")).unwrap();
        assert!(Registry::make_adversary(&o.spec, None).is_err());
    }

    #[test]
    fn every_listed_algorithm_constructs() {
        for alg in [
            "orchestra",
            "orchestra-nomb",
            "count-hop",
            "adjust-window",
            "k-cycle",
            "k-cycle:1/2",
            "k-clique",
            "k-subsets",
            "k-subsets-rrw",
            "duty-cycle",
        ] {
            let o = parse(&[String::from("--alg"), alg.into()]).unwrap();
            let built = Registry::make_algorithm(&o.spec).unwrap();
            assert!(!built.name().is_empty());
        }
    }
}
