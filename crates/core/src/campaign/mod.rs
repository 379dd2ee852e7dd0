//! Experiment campaigns: declarative scenario grids executed in parallel.
//!
//! The paper's evaluation — Table 1, the figure series, the impossibility
//! demonstrations — is entirely *sweeps*: the same run repeated across
//! algorithms, system sizes `n`, energy caps `k`, rates `ρ`, burstiness
//! `β`, and adversaries. This module turns a sweep into data:
//!
//! * [`ScenarioSpec`] — one run, fully described by plain serializable
//!   values (algorithm and adversary by *name*; a [`ScenarioFactory`]
//!   turns names into objects, so the spec stays JSON-round-trippable);
//! * [`Grid`] — a base [`ScenarioSpec`] plus seven axes whose cartesian
//!   product expands into scenario lists;
//! * [`Campaign`] — a worker-pool executor (`std::thread::scope`) that
//!   runs scenarios in parallel and hands every completed run, **in spec
//!   order**, to a [`ResultSink`];
//! * [`sink`] — where results go: streamed in constant memory as CSV or
//!   JSON Lines ([`CsvStreamSink`], [`JsonLinesSink`], whose rows
//!   [`row`] writes), or handed to a closure ([`FnSink`]);
//!   [`Campaign::run`] collects them into a [`CampaignResult`];
//! * [`checkpoint`] — an fsync'd append-only progress file so a killed
//!   campaign resumes where it stopped instead of restarting from zero;
//! * [`MetricsDetail`] — `Full` keeps every per-run series; `Slim` drops
//!   the queue time series and delay histogram right after each scenario
//!   completes, leaving all scalar metrics intact.
//!
//! Results reach the sink in spec order regardless of scheduling
//! (finished runs park in a bounded reorder window until their turn, so
//! at most `workers + 8` reports are ever in flight — see
//! [`Campaign::run_subset`]), and every component of a run is
//! deterministic in the spec (seeded adversaries, deterministic
//! algorithms), so a parallel campaign writes the same bytes as the same
//! scenarios run serially — `crates/core/tests/campaign.rs` and
//! `crates/core/tests/streaming.rs` assert exactly that.
//!
//! ```
//! use emac_core::campaign::{Campaign, Grid, ScenarioFactory, ScenarioSpec};
//! use emac_core::{Algorithm, CountHop};
//! use emac_sim::{Adversary, NoInjections, OnSchedule, Rate};
//! use std::sync::Arc;
//!
//! struct Idle;
//! impl ScenarioFactory for Idle {
//!     fn algorithm(&self, _s: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
//!         Ok(Box::new(CountHop::new()))
//!     }
//!     fn adversary(
//!         &self,
//!         _s: &ScenarioSpec,
//!         _schedule: Option<&Arc<dyn OnSchedule>>,
//!     ) -> Result<Box<dyn Adversary>, String> {
//!         Ok(Box::new(NoInjections))
//!     }
//! }
//!
//! let specs = Grid::new(ScenarioSpec::new("count-hop", "none").rounds(2_000))
//!     .ns([4, 6])
//!     .rhos([Rate::new(1, 2)])
//!     .expand();
//! let result = Campaign::new().threads(2).run(&specs, &Idle);
//! assert_eq!(result.runs.len(), 2);
//! assert!(result.all_clean());
//! ```

pub mod checkpoint;
pub(crate) mod commit;
pub mod expr;
pub mod json;
pub mod row;
pub mod sink;

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use emac_sim::{Adversary, FaultSpec, OnSchedule, Rate};

use crate::algorithm::Algorithm;
use crate::runner::RunReport;
use json::Json;

pub use checkpoint::{campaign_digest, spec_list_digest, Checkpoint};
pub use expr::{Expr, ExprEnv, RateAxis};
pub use row::CSV_HEADER;
pub use sink::{CsvStreamSink, DurableFile, FnSink, JsonLinesSink, ResultSink, TallySink};

/// One fully-described experiment run.
///
/// Algorithms and adversaries are referenced by registry *name* so a spec
/// is plain data: it serializes to one JSON object and back without loss.
/// The auxiliary fields (`target`, `dest`, `period`, `horizon`) parameterize
/// the adversary families that need them and are ignored by the others.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Optional display label (defaults to a canonical rendering).
    pub label: Option<String>,
    /// Algorithm registry name (e.g. `"k-cycle"`).
    pub algorithm: String,
    /// Adversary registry name (e.g. `"uniform"`).
    pub adversary: String,
    /// System size.
    pub n: usize,
    /// Energy-cap parameter for the k-algorithms.
    pub k: usize,
    /// Injection rate ρ.
    pub rho: Rate,
    /// Burstiness β (a general rational, like the paper's β).
    pub beta: Rate,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Optional drain budget after the main run.
    pub drain: Option<u64>,
    /// Optional energy-cap override.
    pub cap: Option<usize>,
    /// Adversary seed.
    pub seed: u64,
    /// Injection station for targeted adversaries.
    pub target: Option<usize>,
    /// Destination station for targeted adversaries.
    pub dest: Option<usize>,
    /// Burst period for periodic adversaries.
    pub period: Option<u64>,
    /// Schedule-analysis horizon for the attack adversaries
    /// (`least-on`, `least-on-pair`).
    pub horizon: Option<u64>,
    /// Stability-probe queue cap: stop the run early (verdict `Diverging`)
    /// once more than this many packets are queued — see
    /// [`ScenarioSpec::drive`]. Above-boundary probes then cost a fraction
    /// of the horizon, which the frontier bisection leans on; the cap must
    /// sit far above the scenario's steady-state queue.
    pub probe_cap: Option<u64>,
    /// Deterministic fault injection (jamming, crash/restart, deaf rounds,
    /// clock skew) — see [`emac_sim::faults`]. Omitted ⇒ fault-free. The
    /// fault stream is seeded from the fault spec's own seed, never
    /// [`seed`](Self::seed), so every seed of an ensemble sees the same
    /// fault schedule.
    pub faults: Option<FaultSpec>,
}

impl ScenarioSpec {
    /// A spec with the workspace defaults: `n = 8`, `k = 3`, `ρ = 1/2`,
    /// `β = 1`, 100 000 rounds, seed 42, no drain.
    pub fn new(algorithm: impl Into<String>, adversary: impl Into<String>) -> Self {
        Self {
            label: None,
            algorithm: algorithm.into(),
            adversary: adversary.into(),
            n: 8,
            k: 3,
            rho: Rate::new(1, 2),
            beta: Rate::integer(1),
            rounds: 100_000,
            drain: None,
            cap: None,
            seed: 42,
            target: None,
            dest: None,
            period: None,
            horizon: None,
            probe_cap: None,
            faults: None,
        }
    }

    /// Set the system size.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Set the cap parameter for the k-algorithms.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the injection rate ρ.
    pub fn rho(mut self, rho: Rate) -> Self {
        self.rho = rho;
        self
    }

    /// Set the burstiness β.
    pub fn beta(mut self, beta: impl Into<Rate>) -> Self {
        self.beta = beta.into();
        self
    }

    /// Set the round count.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Set the adversary seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the drain budget.
    pub fn drain(mut self, drain: u64) -> Self {
        self.drain = Some(drain);
        self
    }

    /// Override the energy cap.
    pub fn cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Set the injection station and destination for targeted adversaries.
    pub fn flood(mut self, target: usize, dest: usize) -> Self {
        self.target = Some(target);
        self.dest = Some(dest);
        self
    }

    /// Set the injection station for targeted adversaries.
    pub fn target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }

    /// Set the burst period for periodic adversaries.
    pub fn period(mut self, period: u64) -> Self {
        self.period = Some(period);
        self
    }

    /// Set the schedule-analysis horizon for the attack adversaries.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Set the stability-probe queue cap (early divergence exit).
    pub fn probe_cap(mut self, probe_cap: u64) -> Self {
        self.probe_cap = Some(probe_cap);
        self
    }

    /// Inject deterministic faults described by `faults`.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the display label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The display label: the explicit one if set, otherwise a canonical
    /// `alg vs adv | n=.. k=.. rho=.. beta=..` rendering.
    pub fn display_label(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!(
                "{} vs {} | n={} k={} rho={} beta={}",
                self.algorithm,
                self.adversary,
                self.n,
                self.k,
                rate_str(self.rho),
                rate_str(self.beta)
            ),
        }
    }

    /// Sanity-check ranges before spending simulation time.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("{}: n must be at least 2", self.display_label()));
        }
        if self.rounds == 0 {
            return Err(format!("{}: rounds must be positive", self.display_label()));
        }
        if Rate::one().lt(&self.rho) {
            return Err(format!("{}: rho exceeds 1", self.display_label()));
        }
        if self.algorithm.is_empty() || self.adversary.is_empty() {
            return Err("algorithm and adversary names must be non-empty".into());
        }
        if self.cap.is_some_and(|cap| cap < 2) {
            return Err(format!(
                "{}: cap must be at least 2, the minimum for point-to-point communication",
                self.display_label()
            ));
        }
        if self.probe_cap == Some(0) {
            return Err(format!("{}: probe_cap must be positive", self.display_label()));
        }
        if let Some(f) = &self.faults {
            f.validate().map_err(|e| format!("{}: faults: {e}", self.display_label()))?;
        }
        Ok(())
    }

    /// Serialize to a JSON object. Optional fields are omitted when unset.
    pub fn to_json(&self) -> Json {
        self.to_json_with_rates(rate_str(self.rho), rate_str(self.beta))
    }

    /// [`ScenarioSpec::to_json`] with `rho` and `beta` rendered as the
    /// given text.
    fn to_json_with_rates(&self, rho: String, beta: String) -> Json {
        let mut obj = Vec::new();
        if let Some(label) = &self.label {
            obj.push(("label".into(), Json::Str(label.clone())));
        }
        obj.push(("algorithm".into(), Json::Str(self.algorithm.clone())));
        obj.push(("adversary".into(), Json::Str(self.adversary.clone())));
        obj.push(("n".into(), Json::Int(self.n as i64)));
        obj.push(("k".into(), Json::Int(self.k as i64)));
        obj.push(("rho".into(), Json::Str(rho)));
        obj.push(("beta".into(), Json::Str(beta)));
        obj.push(("rounds".into(), json_u64(self.rounds)));
        if let Some(d) = self.drain {
            obj.push(("drain".into(), json_u64(d)));
        }
        if let Some(c) = self.cap {
            obj.push(("cap".into(), Json::Int(c as i64)));
        }
        obj.push(("seed".into(), json_u64(self.seed)));
        if let Some(t) = self.target {
            obj.push(("target".into(), Json::Int(t as i64)));
        }
        if let Some(d) = self.dest {
            obj.push(("dest".into(), Json::Int(d as i64)));
        }
        if let Some(p) = self.period {
            obj.push(("period".into(), json_u64(p)));
        }
        if let Some(h) = self.horizon {
            obj.push(("horizon".into(), json_u64(h)));
        }
        if let Some(p) = self.probe_cap {
            obj.push(("probe_cap".into(), json_u64(p)));
        }
        if let Some(f) = &self.faults {
            obj.push(("faults".into(), fault_spec_to_json(f)));
        }
        Json::Obj(obj)
    }

    /// Deserialize from a JSON object produced by [`ScenarioSpec::to_json`]
    /// or written by hand; unknown keys are rejected to catch typos.
    /// `rho` and `beta` accept derived-axis [`expr`]essions
    /// (`"0.8 * k_cycle_threshold"`), evaluated against the scenario's own
    /// `n` and `k` regardless of key order.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        RawScenario::parse(v)?.resolve()
    }
}

/// A scenario object parsed but with `rho` / `beta` left unresolved: they
/// may be expressions over `n`, `k`, and the named paper bounds, and the
/// environment they see depends on the caller — a plain scenario resolves
/// against its own `n`/`k` ([`RawScenario::resolve`]), a frontier template
/// re-resolves at every map point.
#[derive(Clone, Debug)]
pub struct RawScenario {
    /// Every plain field, with `rho`/`beta` still at their defaults.
    pub spec: ScenarioSpec,
    /// The pending rate, when the object had a `"rho"` key.
    pub rho: Option<RateAxis>,
    /// The pending burstiness, when the object had a `"beta"` key.
    pub beta: Option<RateAxis>,
}

impl RawScenario {
    /// Parse a scenario object, leaving `rho`/`beta` pending.
    pub fn parse(v: &Json) -> Result<Self, String> {
        let Json::Obj(members) = v else {
            return Err("scenario must be a JSON object".into());
        };
        let mut spec = ScenarioSpec::new("", "");
        let mut rho = None;
        let mut beta = None;
        for (key, value) in members {
            match key.as_str() {
                "label" => spec.label = Some(req_str(value, key)?),
                "algorithm" => spec.algorithm = req_str(value, key)?,
                "adversary" => spec.adversary = req_str(value, key)?,
                "n" => spec.n = req_usize(value, key)?,
                "k" => spec.k = req_usize(value, key)?,
                "rho" => rho = Some(rate_axis_from_json(value).map_err(|e| format!("rho: {e}"))?),
                "beta" => {
                    beta = Some(rate_axis_from_json(value).map_err(|e| format!("beta: {e}"))?)
                }
                "seed" => spec.seed = req_u64(value, key)?,
                other => {
                    if !read_shared_key(&mut spec, other, value)? {
                        return Err(format!("unknown scenario key {other:?}"));
                    }
                }
            }
        }
        if spec.algorithm.is_empty() {
            return Err("scenario is missing \"algorithm\"".into());
        }
        if spec.adversary.is_empty() {
            return Err("scenario is missing \"adversary\"".into());
        }
        Ok(Self { spec, rho, beta })
    }

    /// Resolve the pending rates against the spec's own `n` and `k`.
    pub fn resolve(self) -> Result<ScenarioSpec, String> {
        let env = ExprEnv::new(self.spec.n, self.spec.k);
        self.resolve_at(&env)
    }

    /// Resolve the pending rates against an explicit environment (the
    /// frontier's per-map-point evaluation), taking `n`/`k` from it too.
    pub fn resolve_at(mut self, env: &ExprEnv) -> Result<ScenarioSpec, String> {
        self.spec.n = env.n as usize;
        self.spec.k = env.k as usize;
        if let Some(ax) = &self.rho {
            self.spec.rho = ax.resolve(env).map_err(|e| format!("rho: {e}"))?;
        }
        if let Some(ax) = &self.beta {
            self.spec.beta = ax.resolve(env).map_err(|e| format!("beta: {e}"))?;
        }
        Ok(self.spec)
    }

    /// Serialize like [`ScenarioSpec::to_json`], with the pending `rho` and
    /// `beta` rendered as their own text (an expression stays an
    /// expression).
    pub fn to_json(&self) -> Json {
        let text = |ax: &Option<RateAxis>, r: Rate| {
            ax.as_ref().map_or_else(|| rate_str(r), RateAxis::text)
        };
        self.spec
            .to_json_with_rates(text(&self.rho, self.spec.rho), text(&self.beta, self.spec.beta))
    }
}

/// Read one of the keys a scenario object and a grid object share into
/// `spec`. Returns `Ok(false)`, leaving `spec` as it was, when `key` is
/// not one of them.
fn read_shared_key(spec: &mut ScenarioSpec, key: &str, value: &Json) -> Result<bool, String> {
    match key {
        "rounds" => spec.rounds = req_u64(value, key)?,
        "drain" => spec.drain = Some(req_u64(value, key)?),
        "cap" => spec.cap = Some(req_usize(value, key)?),
        "target" => spec.target = Some(req_usize(value, key)?),
        "dest" => spec.dest = Some(req_usize(value, key)?),
        "period" => spec.period = Some(req_u64(value, key)?),
        "horizon" => spec.horizon = Some(req_u64(value, key)?),
        "probe_cap" => spec.probe_cap = Some(req_u64(value, key)?),
        "faults" => {
            spec.faults = Some(fault_spec_from_json(value).map_err(|e| format!("faults: {e}"))?)
        }
        _ => return Ok(false),
    }
    Ok(true)
}

pub(crate) fn rate_str(r: Rate) -> String {
    let mut s = String::new();
    push_rate(&mut s, r);
    s
}

/// Append a rate as `p/q`, or as `p` when it is an integer.
pub(crate) fn push_rate(out: &mut String, r: Rate) {
    json::write_u64(out, r.num());
    if r.den() != 1 {
        out.push('/');
        json::write_u64(out, r.den());
    }
}

/// A rate in JSON: a string [`Rate`] parses (`"p/q"`, `"0.25"`), a
/// non-negative integer, or a float, read exactly from the shortest decimal
/// that parses back to it (`0.12345` is `2469/20000`).
fn rate_from_json(v: &Json) -> Result<Rate, String> {
    match v {
        Json::Str(s) => s.parse(),
        Json::Int(i) if *i >= 0 => Ok(Rate::integer(*i as u64)),
        Json::Float(f) => f.to_string().parse(),
        other => Err(format!("expected a rate, got {other:?}")),
    }
}

/// A fault spec in JSON: an object with optional keys `seed`, `jam`,
/// `crash`, `crash_len`, `retain_queue`, `deaf`, `skew`. Rates are plain
/// rationals (`"1/10"`), not expressions; missing keys keep the
/// [`FaultSpec`] defaults (all families disabled). Unknown keys are
/// rejected to catch typos.
pub fn fault_spec_from_json(v: &Json) -> Result<FaultSpec, String> {
    let Json::Obj(members) = v else {
        return Err("faults must be a JSON object".into());
    };
    let mut spec = FaultSpec::default();
    for (key, value) in members {
        match key.as_str() {
            "seed" => spec.seed = req_u64(value, key)?,
            "jam" => spec.jam = rate_from_json(value).map_err(|e| format!("jam: {e}"))?,
            "crash" => spec.crash = rate_from_json(value).map_err(|e| format!("crash: {e}"))?,
            "crash_len" => spec.crash_len = req_u64(value, key)?,
            "retain_queue" => match value {
                Json::Bool(b) => spec.retain_queue = *b,
                other => return Err(format!("retain_queue must be a bool, got {other:?}")),
            },
            "deaf" => spec.deaf = rate_from_json(value).map_err(|e| format!("deaf: {e}"))?,
            "skew" => spec.skew = req_u64(value, key)?,
            other => return Err(format!("unknown fault key {other:?}")),
        }
    }
    spec.validate()?;
    Ok(spec)
}

/// Serialize a fault spec; fields at their defaults are omitted, so the
/// rendering round-trips through [`fault_spec_from_json`].
pub fn fault_spec_to_json(f: &FaultSpec) -> Json {
    let d = FaultSpec::default();
    let mut obj = Vec::new();
    if f.seed != d.seed {
        obj.push(("seed".into(), json_u64(f.seed)));
    }
    if f.jam != d.jam {
        obj.push(("jam".into(), Json::Str(rate_str(f.jam))));
    }
    if f.crash != d.crash {
        obj.push(("crash".into(), Json::Str(rate_str(f.crash))));
    }
    if f.crash_len != d.crash_len {
        obj.push(("crash_len".into(), json_u64(f.crash_len)));
    }
    if f.retain_queue != d.retain_queue {
        obj.push(("retain_queue".into(), Json::Bool(f.retain_queue)));
    }
    if f.deaf != d.deaf {
        obj.push(("deaf".into(), Json::Str(rate_str(f.deaf))));
    }
    if f.skew != d.skew {
        obj.push(("skew".into(), json_u64(f.skew)));
    }
    Json::Obj(obj)
}

/// A rate axis entry in JSON: any literal form [`rate_from_json`] accepts,
/// or a derived-axis expression string. Constant expressions collapse to
/// literals immediately (so `"1/0"` still fails at parse time); expressions
/// over `n`/`k` stay pending until expansion.
pub(crate) fn rate_axis_from_json(v: &Json) -> Result<RateAxis, String> {
    if let Json::Str(s) = v {
        if let Ok(rate) = s.parse::<Rate>() {
            return Ok(RateAxis::Lit(rate));
        }
        let e = Expr::parse(s)?;
        return if e.uses_env() {
            Ok(RateAxis::Expr(e))
        } else {
            // No environment needed: evaluate now so errors (division by
            // zero, negative results) surface at parse time.
            Ok(RateAxis::Lit(e.eval(&ExprEnv::new(2, 2))?))
        };
    }
    rate_from_json(v).map(RateAxis::Lit)
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.as_str().map(String::from).ok_or_else(|| format!("{key} must be a string"))
}

/// A `u64` as JSON: an integer when it fits in `i64` (this JSON layer's
/// integer type), a decimal string beyond that, so `u64::MAX` seeds
/// round-trip losslessly.
pub(crate) fn json_u64(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Str(v.to_string()),
    }
}

/// A non-negative integer: a JSON integer, or a decimal string (how a
/// `u64` past `i64::MAX` is written, and how `emac run` hands over its
/// flags).
fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v {
        Json::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
    .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    let v = req_u64(v, key)?;
    usize::try_from(v).map_err(|_| format!("{key} {v} exceeds this platform's usize"))
}

/// A cartesian parameter grid: a base [`ScenarioSpec`] and seven axes.
/// Every combination of the axes becomes one copy of the base with those
/// seven fields written; every other field (rounds, drain, cap, …) is the
/// base's. Each axis starts as the base's own value, so an unwidened grid
/// expands to exactly its base.
#[derive(Clone, Debug)]
pub struct Grid {
    /// The fields every expanded spec shares.
    pub base: ScenarioSpec,
    /// Algorithm-name axis.
    pub algorithms: Vec<String>,
    /// Adversary-name axis.
    pub adversaries: Vec<String>,
    /// System-size axis.
    pub ns: Vec<usize>,
    /// Cap-parameter axis.
    pub ks: Vec<usize>,
    /// Rate axis; entries may be literals or derived-axis expressions
    /// evaluated per expanded `(n, k)` point (see [`expr`]).
    pub rhos: Vec<RateAxis>,
    /// Burstiness axis; same forms as the rate axis.
    pub betas: Vec<RateAxis>,
    /// Seed axis.
    pub seeds: Vec<u64>,
}

impl Grid {
    /// A grid whose every axis holds `base`'s value; widen axes from there.
    pub fn new(base: ScenarioSpec) -> Self {
        Self {
            algorithms: vec![base.algorithm.clone()],
            adversaries: vec![base.adversary.clone()],
            ns: vec![base.n],
            ks: vec![base.k],
            rhos: vec![RateAxis::Lit(base.rho)],
            betas: vec![RateAxis::Lit(base.beta)],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Replace the algorithm axis.
    pub fn algorithms<S: Into<String>>(mut self, axis: impl IntoIterator<Item = S>) -> Self {
        self.algorithms = axis.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the adversary axis.
    pub fn adversaries<S: Into<String>>(mut self, axis: impl IntoIterator<Item = S>) -> Self {
        self.adversaries = axis.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the system-size axis.
    pub fn ns(mut self, axis: impl IntoIterator<Item = usize>) -> Self {
        self.ns = axis.into_iter().collect();
        self
    }

    /// Replace the cap-parameter axis.
    pub fn ks(mut self, axis: impl IntoIterator<Item = usize>) -> Self {
        self.ks = axis.into_iter().collect();
        self
    }

    /// Replace the rate axis with literal rates.
    pub fn rhos(mut self, axis: impl IntoIterator<Item = Rate>) -> Self {
        self.rhos = axis.into_iter().map(RateAxis::Lit).collect();
        self
    }

    /// Replace the burstiness axis with literal rates.
    pub fn betas(mut self, axis: impl IntoIterator<Item = Rate>) -> Self {
        self.betas = axis.into_iter().map(RateAxis::Lit).collect();
        self
    }

    /// Replace the seed axis.
    pub fn seeds(mut self, axis: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = axis.into_iter().collect();
        self
    }

    /// Number of scenarios [`Grid::expand`] will produce.
    pub fn cardinality(&self) -> usize {
        self.algorithms.len()
            * self.adversaries.len()
            * self.ns.len()
            * self.ks.len()
            * self.rhos.len()
            * self.betas.len()
            * self.seeds.len()
    }

    /// Expand the cartesian product in a fixed nesting order
    /// (algorithm → adversary → n → k → ρ → β → seed). Panics if a
    /// derived-axis expression fails to evaluate at some `(n, k)` point —
    /// use [`Grid::try_expand`] when axes may be expressions.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        self.try_expand().expect("grid expansion failed")
    }

    /// Expand the cartesian product, evaluating derived-axis expressions
    /// at every `(n, k)` point; the first evaluation error aborts the
    /// expansion.
    pub fn try_expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        let mut specs = Vec::with_capacity(self.cardinality());
        for alg in &self.algorithms {
            for adv in &self.adversaries {
                for &n in &self.ns {
                    for &k in &self.ks {
                        let env = ExprEnv::new(n, k);
                        for rho in &self.rhos {
                            let rho = rho.resolve(&env).map_err(|e| format!("rho: {e}"))?;
                            for beta in &self.betas {
                                let beta = beta.resolve(&env).map_err(|e| format!("beta: {e}"))?;
                                for &seed in &self.seeds {
                                    let mut s = self.base.clone();
                                    s.algorithm.clone_from(alg);
                                    s.adversary.clone_from(adv);
                                    s.n = n;
                                    s.k = k;
                                    s.rho = rho;
                                    s.beta = beta;
                                    s.seed = seed;
                                    specs.push(s);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(specs)
    }

    /// Parse a grid from its JSON form: axes are arrays (or scalars, read
    /// as one-element axes); every other key is one a scenario object
    /// also takes, read into the base. A grid has no `label`.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(members) = v else {
            return Err("grid must be a JSON object".into());
        };
        let mut grid = Grid::new(ScenarioSpec::new("", ""));
        let mut saw_alg = false;
        let mut saw_adv = false;
        for (key, value) in members {
            match key.as_str() {
                "algorithms" | "algorithm" => {
                    grid.algorithms = axis(value, |j| req_str(j, key))?;
                    saw_alg = true;
                }
                "adversaries" | "adversary" => {
                    grid.adversaries = axis(value, |j| req_str(j, key))?;
                    saw_adv = true;
                }
                "n" => grid.ns = axis(value, |j| req_usize(j, key))?,
                "k" => grid.ks = axis(value, |j| req_usize(j, key))?,
                "rho" => {
                    grid.rhos =
                        axis(value, |j| rate_axis_from_json(j).map_err(|e| format!("rho: {e}")))?
                }
                "beta" => {
                    grid.betas =
                        axis(value, |j| rate_axis_from_json(j).map_err(|e| format!("beta: {e}")))?
                }
                "seed" | "seeds" => grid.seeds = axis(value, |j| req_u64(j, key))?,
                other => {
                    if !read_shared_key(&mut grid.base, other, value)? {
                        return Err(format!("unknown grid key {other:?}"));
                    }
                }
            }
        }
        if !saw_alg || !saw_adv {
            return Err("grid needs \"algorithms\" and \"adversaries\"".into());
        }
        for ax in [
            grid.algorithms.is_empty(),
            grid.adversaries.is_empty(),
            grid.ns.is_empty(),
            grid.ks.is_empty(),
            grid.rhos.is_empty(),
            grid.betas.is_empty(),
            grid.seeds.is_empty(),
        ] {
            if ax {
                return Err("grid axes must be non-empty".into());
            }
        }
        Ok(grid)
    }
}

fn axis<T>(v: &Json, mut one: impl FnMut(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
    match v {
        Json::Arr(items) => items.iter().map(&mut one).collect(),
        scalar => Ok(vec![one(scalar)?]),
    }
}

/// Parse a campaign spec document: either a bare array of scenarios, or an
/// object with optional `"scenarios"` and `"grids"` arrays. Entries
/// contribute specs in document order (a `"grids"` key written before
/// `"scenarios"` expands first).
pub fn parse_campaign_spec(text: &str) -> Result<Vec<ScenarioSpec>, String> {
    let doc = Json::parse(text)?;
    let mut specs = Vec::new();
    match &doc {
        Json::Arr(items) => {
            for item in items {
                specs.push(ScenarioSpec::from_json(item)?);
            }
        }
        Json::Obj(members) => {
            for (key, value) in members {
                match key.as_str() {
                    "scenarios" => {
                        let items = value.as_array().ok_or("\"scenarios\" must be an array")?;
                        for item in items {
                            specs.push(ScenarioSpec::from_json(item)?);
                        }
                    }
                    "grids" => {
                        let items = value.as_array().ok_or("\"grids\" must be an array")?;
                        for item in items {
                            specs.extend(Grid::from_json(item)?.try_expand()?);
                        }
                    }
                    other => return Err(format!("unknown top-level key {other:?}")),
                }
            }
        }
        _ => return Err("campaign spec must be an object or an array".into()),
    }
    if specs.is_empty() {
        return Err("campaign spec contains no scenarios".into());
    }
    for spec in &specs {
        spec.validate()?;
    }
    Ok(specs)
}

/// Turns scenario *names* into runnable objects.
///
/// The single implementation used by the CLI and every bench binary lives
/// in the facade crate (`emac::registry::Registry`), which can see both the
/// algorithms (this crate) and the adversary implementations
/// (`emac-adversary`); keeping the trait here lets `Campaign` stay free of
/// an adversary-crate dependency.
pub trait ScenarioFactory {
    /// Construct the algorithm a spec names.
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String>;

    /// Construct the adversary a spec names. `schedule` is the algorithm's
    /// precomputed on/off schedule when it is energy-oblivious — the
    /// schedule-aware attack adversaries need it, everything else ignores
    /// it.
    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String>;
}

/// Outcome of one scenario: the report, or why it could not run.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The spec that was executed.
    pub spec: ScenarioSpec,
    /// The run report, or an error (unknown name, invalid parameters, or a
    /// panic inside the simulation, captured rather than poisoning the
    /// whole campaign).
    pub outcome: Result<RunReport, String>,
}

/// How much per-scenario metric detail survives the executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsDetail {
    /// Keep everything a run measured, including the sampled queue-size
    /// time series and the log₂ delay histogram.
    #[default]
    Full,
    /// Drop the bulky per-run series (`queue_series`, delay histogram) and
    /// the fault telemetry counters the moment a scenario completes, before
    /// the report reaches the sink. Every scalar metric — counts, maxima,
    /// mean delay, energy, the stability verdict and slope (classified
    /// before slimming) — is preserved, so CSV exports are byte-identical
    /// to `Full`, and Slim JSONL rows are byte-identical whether or not a
    /// fault plan was armed.
    Slim,
}

impl MetricsDetail {
    /// Parse a `--detail` value (`"full"` or `"slim"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(MetricsDetail::Full),
            "slim" => Ok(MetricsDetail::Slim),
            other => Err(format!("detail must be full or slim, got {other:?}")),
        }
    }

    /// The `--detail` value naming this level, as [`campaign_digest`]
    /// binds it and a shard plan records it.
    pub fn name(self) -> &'static str {
        match self {
            MetricsDetail::Full => "full",
            MetricsDetail::Slim => "slim",
        }
    }
}

/// Parallel scenario executor.
#[derive(Clone, Debug)]
pub struct Campaign {
    threads: usize,
    detail: MetricsDetail,
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

impl Campaign {
    /// An executor sized to the machine (`available_parallelism`), keeping
    /// full metrics detail.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { threads, detail: MetricsDetail::Full }
    }

    /// Set the worker count. `1` means serial execution (useful for
    /// determinism comparisons and debugging).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the metrics detail applied to every completed run.
    pub fn detail(mut self, detail: MetricsDetail) -> Self {
        self.detail = detail;
        self
    }

    /// Execute every spec and return the outcomes **in spec order**:
    /// [`Campaign::run_into`] with an [`FnSink`] that collects them.
    pub fn run<F>(&self, specs: &[ScenarioSpec], factory: &F) -> CampaignResult
    where
        F: ScenarioFactory + Sync,
    {
        let mut runs = Vec::with_capacity(specs.len());
        let mut collect = FnSink(|_, run| {
            runs.push(run);
            Ok(())
        });
        self.run_into(specs, factory, &mut collect).expect("collecting sink is infallible");
        CampaignResult { runs }
    }

    /// Execute every spec, streaming each completed run into `sink` in
    /// spec order. Returns the first sink error, if any (the campaign
    /// aborts on it).
    pub fn run_into<F>(
        &self,
        specs: &[ScenarioSpec],
        factory: &F,
        sink: &mut dyn ResultSink,
    ) -> Result<(), String>
    where
        F: ScenarioFactory + Sync,
    {
        let todo: Vec<usize> = (0..specs.len()).collect();
        self.run_subset(specs, &todo, factory, sink, None)
    }

    /// Execute the scenarios at the `todo` indices (a subsequence of
    /// `0..specs.len()`, typically [`Checkpoint::remaining`]), streaming
    /// each completed run into `sink` in `todo` order and recording it in
    /// `checkpoint` (when given) once the output holding it is durable.
    ///
    /// Work is distributed over the scoped worker pool frontier lanes run
    /// on; each worker builds its scenario's algorithm and adversary via
    /// `factory` on its own thread, so nothing but plain data and the
    /// factory reference crosses threads. Panics inside a scenario are
    /// contained and reported as that scenario's error.
    ///
    /// Finished runs pass through one commit stage:
    ///
    /// * **A bounded reorder window.** A worker may start `todo` position
    ///   `p` only while `p < a + THREADS + K`, where `a` counts the rows
    ///   the sink has accepted, `THREADS` is the worker count and `K` is 8.
    ///   Finished runs park until their turn. At most `THREADS + K`
    ///   scenarios are ever started but unaccepted, so however uneven
    ///   scenario durations are, a streaming campaign's memory does not
    ///   grow with its width.
    /// * **One committer.** The calling thread hands the parked rows to
    ///   the sink in order, and alone touches the sink and the checkpoint,
    ///   while every worker keeps simulating.
    /// * **Fixed commit blocks.** With a checkpoint, after `todo` positions
    ///   `K − 1, 2K − 1, …` and the last one the committer calls
    ///   [`ResultSink::sync`] once and then appends the block's records
    ///   with one write and one fsync, so `R` rows take exactly `⌈R/K⌉`
    ///   barriers at any thread count. A kill loses at most `K − 1`
    ///   accepted but unrecorded rows, plus those in flight; they re-run
    ///   on resume.
    ///
    /// A sink or checkpoint error aborts the campaign: no further
    /// scenarios are dispatched, the failing run is not checkpointed, and
    /// the error is returned. The rows of the current block accepted
    /// before the failure are still synced and recorded first (if that
    /// sync succeeds), so exactly the accepted rows are recorded.
    /// [`ResultSink::finish`] runs only on success.
    pub fn run_subset<F>(
        &self,
        specs: &[ScenarioSpec],
        todo: &[usize],
        factory: &F,
        sink: &mut dyn ResultSink,
        checkpoint: Option<&mut Checkpoint>,
    ) -> Result<(), String>
    where
        F: ScenarioFactory + Sync,
    {
        if let Some(&bad) = todo.iter().find(|&&i| i >= specs.len()) {
            return Err(format!("todo index {bad} out of range for {} specs", specs.len()));
        }
        let workers = self.threads.min(todo.len().max(1));
        commit::run(todo, workers, sink, checkpoint, |index| {
            let mut run = execute_one(&specs[index], factory);
            if self.detail == MetricsDetail::Slim {
                if let Ok(report) = &mut run.outcome {
                    report.metrics.slim();
                }
            }
            run
        })
    }
}

/// Run one scenario — a campaign row, or one lane of a frontier probe
/// with its seed swapped in. Panics inside the simulation are captured as
/// the run's error.
pub(crate) fn execute_one<F: ScenarioFactory>(spec: &ScenarioSpec, factory: &F) -> ScenarioRun {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<RunReport, String> {
        spec.validate()?;
        let algorithm = factory.algorithm(spec)?;
        let mut sim =
            spec.simulator(algorithm.as_ref(), |schedule| factory.adversary(spec, schedule))?;
        Ok(spec.drive(&mut sim))
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic");
        Err(format!("scenario panicked: {msg}"))
    });
    ScenarioRun { spec: spec.clone(), outcome }
}

/// All outcomes of one campaign, in spec order.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// One entry per input spec.
    pub runs: Vec<ScenarioRun>,
}

impl CampaignResult {
    /// Whether every scenario ran and respected every model invariant.
    pub fn all_clean(&self) -> bool {
        self.runs.iter().all(|r| matches!(&r.outcome, Ok(report) if report.clean()))
    }

    /// Reports of the successful runs, in spec order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.runs.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    /// First error, if any scenario failed to run.
    pub fn first_error(&self) -> Option<&str> {
        self.runs.iter().find_map(|r| r.outcome.as_ref().err().map(String::as_str))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cardinality_matches_expansion() {
        let grid = Grid::new(ScenarioSpec::new("count-hop", "uniform"))
            .algorithms(["count-hop", "orchestra"])
            .ns([4, 6, 8])
            .rhos([Rate::new(1, 2), Rate::new(3, 4)])
            .seeds([1, 2, 3]);
        assert_eq!(grid.cardinality(), 2 * 3 * 2 * 3);
        let specs = grid.expand();
        assert_eq!(specs.len(), grid.cardinality());
        // fixed nesting order: last axis (seed) varies fastest
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[1].seed, 2);
        assert_eq!(specs[2].seed, 3);
        assert_eq!(specs[0].algorithm, "count-hop");
        assert_eq!(specs[specs.len() - 1].algorithm, "orchestra");
    }

    #[test]
    fn spec_json_round_trip_preserves_everything() {
        let mut spec = ScenarioSpec::new("k-cycle", "least-on")
            .label("row 6")
            .n(9)
            .k(3)
            .rho(Rate::new(5, 12))
            .beta(Rate::new(3, 2))
            .rounds(60_000)
            .drain(10_000)
            .cap(4)
            .seed(7)
            .flood(1, 8)
            .period(64)
            .horizon(1_000);
        let json = spec.to_json().render();
        let back = ScenarioSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
        // u64 fields beyond i64::MAX survive the trip (encoded as strings)
        spec.seed = u64::MAX;
        spec.rounds = u64::MAX - 1;
        let json = spec.to_json().render();
        let back = ScenarioSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert!(json.contains(&format!("\"{}\"", u64::MAX)), "{json}");
    }

    #[test]
    fn spec_from_json_rejects_unknown_keys_and_missing_names() {
        let bad = Json::parse(r#"{"algorithm":"a","adversary":"b","typo":1}"#).unwrap();
        assert!(ScenarioSpec::from_json(&bad).unwrap_err().contains("typo"));
        let missing = Json::parse(r#"{"algorithm":"a"}"#).unwrap();
        assert!(ScenarioSpec::from_json(&missing).is_err());
    }

    #[test]
    fn campaign_spec_document_forms() {
        let doc = r#"{
            "scenarios": [
                {"algorithm": "count-hop", "adversary": "uniform", "n": 4, "rounds": 1000}
            ],
            "grids": [
                {"algorithms": ["k-cycle"], "adversaries": ["uniform"],
                 "n": [6, 9], "k": 3, "rho": ["1/5"], "rounds": 1000}
            ]
        }"#;
        let specs = parse_campaign_spec(doc).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].algorithm, "count-hop");
        assert_eq!(specs[1].n, 6);
        assert_eq!(specs[2].n, 9);

        let bare = r#"[{"algorithm": "a", "adversary": "b", "rounds": 10}]"#;
        assert_eq!(parse_campaign_spec(bare).unwrap().len(), 1);

        assert!(parse_campaign_spec("{}").is_err(), "no scenarios");
        assert!(parse_campaign_spec(r#"{"grids":[{"algorithms":[]}]}"#).is_err());
    }

    #[test]
    fn grid_expressions_derive_rho_per_point() {
        // The ROADMAP's spec-ergonomics case: ρ derived from each (n, k).
        let doc = r#"{
            "grids": [
                {"algorithms": ["k-cycle"], "adversaries": ["uniform"],
                 "n": [9, 13], "k": [3, 4], "rho": "0.8 * k_cycle_threshold",
                 "beta": ["1", "n / (2 * n)"], "rounds": 1000}
            ]
        }"#;
        let specs = parse_campaign_spec(doc).unwrap();
        assert_eq!(specs.len(), 8);
        // 0.8·(k−1)/(n−1): n=9,k=3 → 1/5; n=13,k=4 → 1/5; n=9,k=4 → 3/10
        assert_eq!(specs[0].rho, Rate::new(1, 5));
        assert_eq!(specs[2].rho, Rate::new(3, 10));
        assert_eq!(specs[4].rho, Rate::new(2, 15)); // n=13,k=3
        assert_eq!(specs[6].rho, Rate::new(1, 5)); // n=13,k=4
                                                   // the β axis mixes a literal and an expression
        assert_eq!(specs[0].beta, Rate::integer(1));
        assert_eq!(specs[1].beta, Rate::new(1, 2));
    }

    #[test]
    fn scenario_expressions_resolve_against_own_n_and_k_in_any_key_order() {
        // rho written *before* n and k still sees the final values
        let doc = r#"{"algorithm": "k-cycle", "adversary": "uniform",
                      "rho": "0.8 * k_cycle_threshold", "n": 9, "k": 3, "rounds": 10}"#;
        let spec = ScenarioSpec::from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(spec.rho, Rate::new(1, 5));
    }

    #[test]
    fn expression_errors_surface_at_parse_or_expansion() {
        // constant division by zero: rejected at parse time
        let doc = r#"{"grids": [{"algorithms": ["a"], "adversaries": ["b"],
                      "rho": "1/(2-2)", "rounds": 10}]}"#;
        let err = parse_campaign_spec(doc).unwrap_err();
        assert!(err.contains("division by zero"), "{err}");
        // environment-dependent division by zero: rejected at expansion
        let doc = r#"{"grids": [{"algorithms": ["a"], "adversaries": ["b"],
                      "n": [8], "rho": "1/(n-8)", "rounds": 10}]}"#;
        let err = parse_campaign_spec(doc).unwrap_err();
        assert!(err.contains("division by zero"), "{err}");
        // parse error names the bad token
        let doc = r#"{"grids": [{"algorithms": ["a"], "adversaries": ["b"],
                      "rho": "0.8 *", "rounds": 10}]}"#;
        assert!(parse_campaign_spec(doc).is_err());
        // unknown identifier
        let doc = r#"{"scenarios": [{"algorithm": "a", "adversary": "b",
                      "rho": "threshold", "rounds": 10}]}"#;
        let err = parse_campaign_spec(doc).unwrap_err();
        assert!(err.contains("unknown identifier"), "{err}");
    }

    #[test]
    fn probe_cap_round_trips_and_expands() {
        let spec = ScenarioSpec::new("a", "b").probe_cap(500);
        let json = spec.to_json().render();
        let back = ScenarioSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.probe_cap, Some(500));
        assert_eq!(back, spec);
        let grid = Grid::new(ScenarioSpec::new("a", "b").probe_cap(700));
        assert!(grid.expand().iter().all(|s| s.probe_cap == Some(700)));
    }

    #[test]
    fn faults_round_trip_and_expand() {
        let faults = FaultSpec {
            seed: 9,
            jam: Rate::new(1, 10),
            crash: Rate::new(1, 500),
            crash_len: 32,
            retain_queue: false,
            deaf: Rate::new(1, 8),
            skew: 2,
        };
        let spec = ScenarioSpec::new("a", "b").faults(faults.clone());
        let json = spec.to_json().render();
        let back = ScenarioSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.faults.as_ref(), Some(&faults));
        assert_eq!(back, spec);

        // Fault-free specs omit the key entirely, so their rendering (and
        // every pinned spec-list digest derived from it) is byte-identical
        // to the pre-faults format.
        let plain = ScenarioSpec::new("a", "b");
        assert!(!plain.to_json().render().contains("faults"));

        let grid = Grid::new(ScenarioSpec::new("a", "b").faults(faults.clone()));
        assert!(grid.expand().iter().all(|s| s.faults.as_ref() == Some(&faults)));
    }

    #[test]
    fn fault_json_rejects_unknown_keys_and_bad_values() {
        let parse = |s: &str| fault_spec_from_json(&Json::parse(s).unwrap());
        assert!(parse(r#"{"bogus": 1}"#).unwrap_err().contains("unknown fault key"));
        assert!(parse(r#"{"jam": "3/2"}"#).unwrap_err().contains("at most 1"));
        assert!(parse(r#"{"crash": "1/4", "crash_len": 0}"#).unwrap_err().contains("crash_len"));
        assert!(parse(r#"{"retain_queue": 1}"#).unwrap_err().contains("bool"));
        assert!(fault_spec_from_json(&Json::parse("[]").unwrap()).is_err());
        assert_eq!(parse("{}").unwrap(), FaultSpec::default());
    }

    #[test]
    fn validate_catches_bad_ranges() {
        let mut spec = ScenarioSpec::new("a", "b");
        spec.n = 1;
        assert!(spec.validate().is_err());
        spec.n = 4;
        spec.rounds = 0;
        assert!(spec.validate().is_err());
        spec.rounds = 10;
        spec.rho = Rate::new(3, 2);
        assert!(spec.validate().is_err());
        spec.rho = Rate::one();
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_refuses_a_cap_below_two() {
        let spec = ScenarioSpec::new("a", "b").cap(1);
        let err = spec.validate().unwrap_err();
        assert!(
            err.ends_with("cap must be at least 2, the minimum for point-to-point communication"),
            "{err}"
        );
        assert!(spec.cap(2).validate().is_ok());
        let doc = r#"[{"algorithm": "k-cycle", "adversary": "uniform", "cap": 1}]"#;
        assert!(parse_campaign_spec(doc).unwrap_err().contains("cap must be at least 2"));
        let doc = r#"{"grids": [{"algorithms": "k-cycle", "adversaries": "uniform", "cap": 0}]}"#;
        assert!(parse_campaign_spec(doc).unwrap_err().contains("cap must be at least 2"));
    }

    #[test]
    fn grids_and_scenarios_read_the_shared_keys_alike() {
        for key_value in [
            r#""rounds": 777"#,
            r#""drain": 50"#,
            r#""cap": 4"#,
            r#""target": 1"#,
            r#""dest": 2"#,
            r#""period": 16"#,
            r#""horizon": 900"#,
            r#""probe_cap": 64"#,
            r#""faults": {"jam": "1/10", "seed": 3}"#,
        ] {
            let scenario = format!(r#"{{"algorithm": "a", "adversary": "b", {key_value}}}"#);
            let grid = format!(r#"{{"algorithms": "a", "adversaries": "b", {key_value}}}"#);
            let want = ScenarioSpec::from_json(&Json::parse(&scenario).unwrap()).unwrap();
            assert_ne!(want, ScenarioSpec::new("a", "b"), "{key_value} must reach the spec");
            let got = Grid::from_json(&Json::parse(&grid).unwrap()).unwrap().expand();
            assert_eq!(got, [want], "{key_value}");
        }
        let grid = Json::parse(r#"{"algorithms": "a", "adversaries": "b", "label": "x"}"#).unwrap();
        assert_eq!(Grid::from_json(&grid).unwrap_err(), "unknown grid key \"label\"");
        let scenario =
            Json::parse(r#"{"algorithm": "a", "adversary": "b", "seeds": [1, 2]}"#).unwrap();
        assert_eq!(
            ScenarioSpec::from_json(&scenario).unwrap_err(),
            "unknown scenario key \"seeds\""
        );
    }
}
