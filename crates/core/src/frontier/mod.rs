//! Adaptive stability-boundary mapping.
//!
//! The paper's central results are stability *regions* — injection-rate
//! thresholds like k-Cycle's `(k−1)/(n−1)` (Theorem 5) and the
//! k-Subsets/k-Clique rate frontiers — but a fixed campaign grid can only
//! sample them; finding where the verdict flips meant eyeballing rows.
//! This module *searches* for the boundary: given a scenario template, a
//! search axis (`rho`, `beta`, `k`, or `ell`), and a bracket, it bisects
//! the stable/unstable boundary to a requested tolerance using the
//! existing stability verdict, and sweeps that bisection across one or two
//! *map axes* (`n`, `k`) to emit a frontier map — one row
//! `(n, k, lo, hi, boundary, probes, status)` per map point.
//!
//! Every probe runs as *lanes* — one solo scenario run per seed, through
//! the campaign's per-scenario executor — on the one worker pool campaign
//! rows run on. No probe waits for another point's: when a probe's last
//! lane lands, the calling thread applies it and queues that point's next
//! probe, then records it and emits the rows now due in map order, so the
//! workers run the next probes while the record and the rows sync. Lanes are
//! deterministic and each point's probes apply in its own bisection order,
//! so a frontier map is **byte-identical at any thread count**, and a
//! killed map resumes mid-bisection from its [`FrontierCheckpoint`] to the
//! same bytes as an uninterrupted run.
//!
//! [`Frontier::run_into`] maps every point, [`Frontier::run_into_observed`]
//! adds an [`Observer`], and [`Frontier::run_subset_into_observed`] maps
//! only a shard's points; the first two call the third.
//!
//! Template fields and the bracket endpoints accept derived-axis
//! [`expr`](crate::campaign::expr)essions evaluated per map point, so one
//! template spans every `(n, k)`:
//!
//! ```json
//! {
//!   "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
//!                "target": 1, "beta": "2", "rounds": 150000, "probe_cap": 4000},
//!   "axis": "rho",
//!   "lo": "0.5 * group_share",
//!   "hi": "1.25 * k_cycle_threshold",
//!   "tol": 0.01,
//!   "map": {"n": [9, 13], "k": [3, 4]}
//! }
//! ```
//!
//! # Bisection contract
//!
//! Each map point first probes `lo` and `hi`. A point whose `lo` probe
//! already diverges finishes as `all-diverging`; one whose `hi` probe is
//! stable finishes as `all-stable`; otherwise `[lo, hi]` brackets the
//! boundary and is halved (exact rational midpoints) until its width is at
//! most `tol` (`converged`). Only a `Diverging` verdict counts as above
//! the boundary; `Inconclusive` (possible only for horizons too short to
//! sample 16 queue points) is treated as stable — give templates a real
//! horizon. The template's `probe_cap` makes above-boundary probes cheap:
//! they exit as soon as the queue blows past the cap
//! ([`ScenarioSpec::probe_cap`](crate::campaign::ScenarioSpec::probe_cap)).
//!
//! The integer axes (`"axis": "k"` or `"ell"`) bisect a spec field
//! instead of a rate: bracket expressions must evaluate to integers,
//! midpoints are floored, and a point converges once the bracket is at
//! most `max(tol, 1)` wide. `k` searches the cap parameter itself (note
//! the inverted orientation: *small* `k` diverges, large `k` is stable,
//! because thresholds like `(k−1)/(n−1)` grow with `k`); `ell` searches
//! the k-Cycle group count, realised through the nearest achievable cap
//! `k = ⌈n/ℓ⌉ + 1` — where no cap yields the probed `ℓ` exactly, the
//! closest achievable group count below it is what actually runs.
//!
//! # Seed ensembles, bands, escalation
//!
//! With two or more `"seeds"`, every probe runs one lane per seed and the
//! bisection follows the **strict-majority** verdict of its lanes; a tie
//! on an even ensemble counts as `Diverging` (the conservative reading:
//! half the streams blowing up is not stability). The lanes of one probe
//! spread across the workers like any other lanes; lane `i` is
//! bit-for-bit the solo run with seed `i`, so where a lane runs never
//! changes a tally. Ensemble rows carry three extra columns:
//!
//! - `band_lo`/`band_hi` — the *verdict-flip band*: from the lowest probed
//!   axis value where **any** lane diverged through the highest where any
//!   lane was stable, clamped to include `boundary`. When every probe was
//!   unanimous the band collapses to `band_lo == band_hi == boundary`.
//! - `agreement` — the fraction of lane verdicts that matched their
//!   probe's majority verdict, over each probe's final lane batch;
//!   `1.000000` exactly when the band is degenerate.
//!
//! An `"escalate": {"max_seeds": S, "step": d}` rule spends extra seeds
//! only where the ensemble disagrees: when the last lane of a probe lands
//! and its lanes are mixed, the probe gains `d` more lanes (fresh seeds
//! `max(seeds)+1, +2, …`), until its lanes are unanimous or `S` lanes are
//! reached. Only the new lanes run — they go to the front of the queue,
//! and the lanes already landed keep their verdicts — so a unanimous base
//! ensemble never escalates, and a genuinely contested probe widens to
//! the cap, sharpening the band and the agreement denominator. Escalation
//! outcomes are recorded in the checkpoint as replayable events (the
//! final lane tally), so a killed map resumes to byte-identical output
//! without re-running anything.
//!
//! # `n`-continuation
//!
//! `"continuation": "n"` warm-starts each point's bracket from the
//! boundary found at the previous `n` in the map (same `k`): the bracket
//! shrinks to the predecessor's final bracket widened by its own width on
//! each side (clamped to this point's full bracket). If the boundary
//! drifted outside the warm bracket, the search falls back to the full
//! bracket endpoint on the escaped side instead of mis-reporting
//! `all-stable`/`all-diverging`.

pub mod checkpoint;

use std::collections::VecDeque;
use std::io::Write;
use std::time::Instant;

use emac_sim::rate::gcd;
use emac_sim::Rate;

use crate::campaign::commit::{self, Queue, Wake};
use crate::campaign::expr::{ExprEnv, RateAxis, Q};
use crate::campaign::json::Json;
use crate::campaign::{rate_axis_from_json, rate_str};
use crate::campaign::{RawScenario, ScenarioFactory, ScenarioRun, ScenarioSpec};
use crate::digest::Fnv64;
use crate::obs::{ObsEvent, Observer};
use crate::stability::Verdict;

pub use checkpoint::FrontierCheckpoint;

/// The spec field the bisection varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchAxis {
    /// Bisect the injection rate ρ (bracket confined to `[0, 1]`).
    Rho,
    /// Bisect the burstiness β.
    Beta,
    /// Bisect the cap parameter `k` (integer; *low* `k` diverges).
    K,
    /// Bisect the k-Cycle group count `ℓ`, realised via `k = ⌈n/ℓ⌉ + 1`
    /// (integer; high `ℓ` — small group share — diverges).
    Ell,
    /// Bisect the jamming intensity (the `jam` rate of the template's
    /// fault spec; bracket confined to `[0, 1]`, high jam diverges).
    JamRate,
}

impl SearchAxis {
    /// Parse an axis name (`"rho"`, `"beta"`, `"k"`, `"ell"`, or
    /// `"jam_rate"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rho" => Ok(SearchAxis::Rho),
            "beta" => Ok(SearchAxis::Beta),
            "k" => Ok(SearchAxis::K),
            "ell" => Ok(SearchAxis::Ell),
            "jam_rate" => Ok(SearchAxis::JamRate),
            other => {
                Err(format!("search axis must be rho, beta, k, ell, or jam_rate, got {other:?}"))
            }
        }
    }

    /// The axis name as it appears in specs and output rows.
    pub fn name(self) -> &'static str {
        match self {
            SearchAxis::Rho => "rho",
            SearchAxis::Beta => "beta",
            SearchAxis::K => "k",
            SearchAxis::Ell => "ell",
            SearchAxis::JamRate => "jam_rate",
        }
    }

    /// Whether the axis takes integer values (floored midpoints, bracket
    /// converged at width `max(tol, 1)`).
    pub fn integer(self) -> bool {
        matches!(self, SearchAxis::K | SearchAxis::Ell)
    }

    /// Whether divergence lies on the *high* side of the bracket. True for
    /// `rho`, `beta`, `ell`, and `jam_rate` (more load / smaller group
    /// share / more channel noise diverges); false for `k`, where raising
    /// the cap raises the stability threshold.
    pub fn diverges_high(self) -> bool {
        !matches!(self, SearchAxis::K)
    }
}

/// One `(n, k)` coordinate of the frontier map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapPoint {
    /// System size.
    pub n: usize,
    /// Cap parameter.
    pub k: usize,
}

/// How a map point's search ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The bracket narrowed to the tolerance; `[lo, hi]` straddles the
    /// boundary.
    Converged,
    /// Even the `hi` endpoint was stable — the boundary (if any) lies
    /// above the bracket.
    AllStable,
    /// Even the `lo` endpoint diverged — the boundary lies below the
    /// bracket.
    AllDiverging,
}

impl Status {
    /// The status as it appears in output rows.
    pub fn name(self) -> &'static str {
        match self {
            Status::Converged => "converged",
            Status::AllStable => "all-stable",
            Status::AllDiverging => "all-diverging",
        }
    }
}

/// Adaptive seed-escalation rule: widen a probe's lane batch while its
/// ensemble disagrees (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscalateSpec {
    /// Hard cap on lanes per probe (inclusive).
    pub max_seeds: usize,
    /// Lanes added per widening round.
    pub step: usize,
}

/// Map axis along which points warm-start from their predecessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Continuation {
    /// Each `(n, k)` point warm-starts its bracket from the finished
    /// boundary at the previous `n` in the map's `n` list (same `k`).
    N,
}

/// A parsed frontier search specification — see the module docs for the
/// JSON form.
#[derive(Clone, Debug)]
pub struct FrontierSpec {
    /// The scenario template; `rho`/`beta` stay pending so expressions are
    /// re-evaluated per map point.
    pub template: RawScenario,
    /// The field the bisection varies.
    pub axis: SearchAxis,
    /// Lower bracket endpoint (literal or expression, per map point).
    pub lo: RateAxis,
    /// Upper bracket endpoint.
    pub hi: RateAxis,
    /// Bracket width at which a point counts as converged (exclusive
    /// upper bound on the final `hi − lo`).
    pub tol: f64,
    /// Map axis: system sizes.
    pub ns: Vec<usize>,
    /// Map axis: cap parameters.
    pub ks: Vec<usize>,
    /// Probe seed ensemble. Empty (the default) probes with the template's
    /// own seed; one seed overrides it; more than one runs every probe as
    /// one lane per seed and takes the strict-majority verdict across
    /// lanes (ties on even ensembles count as diverging — the conservative
    /// reading), so a boundary stops being one RNG stream's opinion.
    /// Ensemble rows additionally report the verdict-flip band and lane
    /// agreement.
    pub seeds: Vec<u64>,
    /// Adaptive seed escalation; requires an ensemble (`seeds.len() >= 2`).
    pub escalate: Option<EscalateSpec>,
    /// Warm-start brackets along a map axis.
    pub continuation: Option<Continuation>,
}

impl FrontierSpec {
    /// Parse a frontier spec document.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Parse from a JSON value; unknown keys are rejected.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(members) = v else {
            return Err("frontier spec must be a JSON object".into());
        };
        let mut template = None;
        let mut axis = SearchAxis::Rho;
        let mut lo = RateAxis::Lit(Rate::zero());
        let mut hi = RateAxis::Lit(Rate::one());
        let mut tol = 0.01f64;
        let mut ns = None;
        let mut ks = None;
        let mut seeds = Vec::new();
        let mut escalate = None;
        let mut continuation = None;
        for (key, value) in members {
            match key.as_str() {
                "template" => template = Some(RawScenario::parse(value)?),
                "axis" => {
                    axis = SearchAxis::parse(value.as_str().ok_or("\"axis\" must be a string")?)?
                }
                // The grid's literal-or-expression forms.
                "lo" => lo = rate_axis_from_json(value).map_err(|e| format!("lo: {e}"))?,
                "hi" => hi = rate_axis_from_json(value).map_err(|e| format!("hi: {e}"))?,
                "tol" => {
                    tol = value.as_f64().ok_or("\"tol\" must be a number")?;
                }
                "map" => {
                    let Json::Obj(axes) = value else {
                        return Err("\"map\" must be an object".into());
                    };
                    for (axis_key, axis_value) in axes {
                        let parsed = int_axis(axis_value, axis_key)?;
                        match axis_key.as_str() {
                            "n" => ns = Some(parsed),
                            "k" => ks = Some(parsed),
                            other => {
                                return Err(format!("unknown map axis {other:?} (supported: n, k)"))
                            }
                        }
                    }
                }
                "seeds" => {
                    let items = match value {
                        Json::Arr(items) => items.as_slice(),
                        scalar => std::slice::from_ref(scalar),
                    };
                    seeds = items
                        .iter()
                        .map(|j| j.as_u64().ok_or("\"seeds\" must hold unsigned integers"))
                        .collect::<Result<_, _>>()?;
                }
                "escalate" => {
                    let Json::Obj(fields) = value else {
                        return Err("\"escalate\" must be an object".into());
                    };
                    let mut max_seeds = None;
                    let mut step = 1usize;
                    for (ek, ev) in fields {
                        match ek.as_str() {
                            "max_seeds" => {
                                max_seeds =
                                    Some(ev.as_usize().ok_or("\"max_seeds\" must be an integer")?)
                            }
                            "step" => step = ev.as_usize().ok_or("\"step\" must be an integer")?,
                            other => return Err(format!("unknown escalate key {other:?}")),
                        }
                    }
                    let max_seeds = max_seeds.ok_or("escalate needs \"max_seeds\"")?;
                    escalate = Some(EscalateSpec { max_seeds, step });
                }
                "continuation" => {
                    continuation = Some(match value.as_str() {
                        Some("n") => Continuation::N,
                        _ => return Err("\"continuation\" must be \"n\"".into()),
                    })
                }
                other => return Err(format!("unknown frontier key {other:?}")),
            }
        }
        let template = template.ok_or("frontier spec needs a \"template\"")?;
        let spec = Self {
            ns: ns.unwrap_or_else(|| vec![template.spec.n]),
            ks: ks.unwrap_or_else(|| vec![template.spec.k]),
            template,
            axis,
            lo,
            hi,
            tol,
            seeds,
            escalate,
            continuation,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range checks (also run by [`FrontierSpec::from_json`]); call again
    /// after overriding `tol` or the axes in code. Besides the search's own
    /// knobs, every map point's template and bracket must resolve, and its
    /// probes must be scenarios that [`ScenarioSpec::validate`] accepts.
    pub fn validate(&self) -> Result<(), String> {
        if !self.tol.is_finite() || self.tol <= 0.0 {
            return Err(format!("tol must be a positive number, got {}", self.tol));
        }
        if self.tol < 1e-9 {
            return Err(format!("tol {} is finer than bisection can resolve (min 1e-9)", self.tol));
        }
        if self.ns.is_empty() || self.ks.is_empty() {
            return Err("map axes must be non-empty".into());
        }
        if let Some(esc) = &self.escalate {
            if self.seeds.len() < 2 {
                return Err(
                    "escalation widens a seed ensemble; give the spec at least two seeds".into()
                );
            }
            if esc.max_seeds < self.seeds.len() {
                return Err(format!(
                    "escalate max_seeds {} is below the base ensemble of {} seeds",
                    esc.max_seeds,
                    self.seeds.len()
                ));
            }
            if esc.step == 0 {
                return Err("escalate step must be positive".into());
            }
        }
        // Every probe is a scenario, so a point whose template or bracket
        // does not resolve, or whose probes `ScenarioSpec::validate`
        // refuses, is refused here, before any output exists. Its checks
        // are monotone along every axis, so the probes at the two bracket
        // ends stand for all the ones between.
        for (i, point) in self.points().into_iter().enumerate() {
            let search = PointSearch::new(self, i, point)?;
            for rate in [search.lo, search.hi] {
                probe_at(&search.base, self.axis, point, rate)
                    .validate()
                    .map_err(|e| format!("map point n={}, k={}: {e}", point.n, point.k))?;
            }
        }
        Ok(())
    }

    /// The map points in output order: `n` outer, `k` inner.
    pub fn points(&self) -> Vec<MapPoint> {
        let mut points = Vec::with_capacity(self.ns.len() * self.ks.len());
        for &n in &self.ns {
            for &k in &self.ks {
                points.push(MapPoint { n, k });
            }
        }
        points
    }

    /// Canonical JSON rendering — the digest input, so any change to the
    /// template, axis, bracket, tolerance, or map invalidates checkpoints.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("template".into(), self.template.to_json()),
            ("axis".into(), Json::Str(self.axis.name().into())),
            ("lo".into(), Json::Str(self.lo.text())),
            ("hi".into(), Json::Str(self.hi.text())),
            ("tol".into(), Json::Float(self.tol)),
            (
                "map".into(),
                Json::Obj(vec![
                    ("n".into(), Json::Arr(self.ns.iter().map(|&n| Json::Int(n as i64)).collect())),
                    ("k".into(), Json::Arr(self.ks.iter().map(|&k| Json::Int(k as i64)).collect())),
                ]),
            ),
        ];
        // Only rendered when present, so single-seed specs keep the digest
        // (and thus the checkpoints) they had before seed ensembles existed.
        if !self.seeds.is_empty() {
            members.push((
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::Int(s as i64)).collect()),
            ));
        }
        // Same deal for the band-era keys: absent keys render nothing, so
        // pre-band specs keep their digests and checkpoints.
        if let Some(esc) = &self.escalate {
            members.push((
                "escalate".into(),
                Json::Obj(vec![
                    ("max_seeds".into(), Json::Int(esc.max_seeds as i64)),
                    ("step".into(), Json::Int(esc.step as i64)),
                ]),
            ));
        }
        if let Some(Continuation::N) = self.continuation {
            members.push(("continuation".into(), Json::Str("n".into())));
        }
        Json::Obj(members)
    }

    /// FNV-1a digest binding this spec *and* the output format, for
    /// checkpoint/resume compatibility checks.
    pub fn digest(&self, format_tag: &str) -> u64 {
        let mut h = Fnv64::new();
        h.str(&self.to_json().render());
        h.str(format_tag);
        h.finish()
    }
}

fn int_axis(v: &Json, key: &str) -> Result<Vec<usize>, String> {
    let items: Vec<usize> = match v {
        Json::Arr(items) => items
            .iter()
            .map(|j| j.as_usize().ok_or_else(|| format!("map axis {key} must hold integers")))
            .collect::<Result<_, _>>()?,
        scalar => {
            vec![scalar.as_usize().ok_or_else(|| format!("map axis {key} must hold integers"))?]
        }
    };
    if items.is_empty() {
        return Err(format!("map axis {key} must be non-empty"));
    }
    Ok(items)
}

/// Verdict-flip band of a seed-ensemble map point (see the module docs
/// for the exact semantics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandStats {
    /// Lowest probed axis value where any lane diverged, clamped to at
    /// most `boundary`; equals `boundary` when every probe was unanimous.
    pub lo: f64,
    /// Highest probed axis value where any lane was stable, clamped to at
    /// least `boundary`; equals `boundary` when every probe was unanimous.
    pub hi: f64,
    /// Fraction of lane verdicts matching their probe's majority verdict
    /// (final batches only); exactly `1.0` iff the band is degenerate.
    pub agreement: f64,
    /// Widest lane batch any probe of this point ran (escalation cap
    /// audit; not a CSV column).
    pub max_lanes: usize,
}

/// One finished map point, as it appears in the output.
#[derive(Clone, Debug)]
pub struct MapRow {
    /// Position in the map-point order.
    pub index: usize,
    /// The map coordinate.
    pub point: MapPoint,
    /// The search axis (all rows of one map share it).
    pub axis: SearchAxis,
    /// Final lower bracket endpoint (highest rate observed stable for
    /// `converged` rows).
    pub lo: Rate,
    /// Final upper bracket endpoint (lowest rate observed diverging).
    pub hi: Rate,
    /// Probes spent on this point.
    pub probes: u32,
    /// How the search ended.
    pub status: Status,
    /// Verdict-flip band; present exactly for seed-ensemble maps
    /// (`seeds.len() >= 2`), so solo maps keep their legacy byte format.
    pub band: Option<BandStats>,
}

impl MapRow {
    /// The boundary estimate: the bracket midpoint as a float. Only
    /// meaningful for `converged` rows — the status column says so.
    pub fn boundary(&self) -> f64 {
        (self.lo.as_f64() + self.hi.as_f64()) / 2.0
    }
}

/// Columns of a solo-map frontier CSV export.
pub const FRONTIER_CSV_HEADER: &str = "n,k,axis,lo,hi,boundary,probes,status";

/// Columns of a seed-ensemble frontier CSV export: the legacy columns
/// first (byte-for-byte — a band row with its last three fields stripped
/// is a legacy row), then the band.
pub const FRONTIER_BAND_CSV_HEADER: &str =
    "n,k,axis,lo,hi,boundary,probes,status,band_lo,band_hi,agreement";

/// One map row as a CSV line (no trailing newline), matching
/// [`FRONTIER_CSV_HEADER`] — or [`FRONTIER_BAND_CSV_HEADER`] when the row
/// carries a band. Bracket endpoints are exact rationals; the boundary and
/// band estimates are fixed to six decimals so exports are
/// byte-deterministic.
pub fn csv_row(row: &MapRow) -> String {
    let mut line = format!(
        "{},{},{},{},{},{:.6},{},{}",
        row.point.n,
        row.point.k,
        row.axis.name(),
        rate_str(row.lo),
        rate_str(row.hi),
        row.boundary(),
        row.probes,
        row.status.name()
    );
    if let Some(band) = &row.band {
        line.push_str(&format!(",{:.6},{:.6},{:.6}", band.lo, band.hi, band.agreement));
    }
    line
}

/// One map row as a compact JSON object (the JSONL line format).
pub fn row_json(row: &MapRow) -> Json {
    let mut members = vec![
        ("index".into(), Json::Int(row.index as i64)),
        ("n".into(), Json::Int(row.point.n as i64)),
        ("k".into(), Json::Int(row.point.k as i64)),
        ("axis".into(), Json::Str(row.axis.name().into())),
        ("lo".into(), Json::Str(rate_str(row.lo))),
        ("hi".into(), Json::Str(rate_str(row.hi))),
        ("boundary".into(), Json::Float(row.boundary())),
        ("probes".into(), Json::Int(row.probes as i64)),
        ("status".into(), Json::Str(row.status.name().into())),
    ];
    if let Some(band) = &row.band {
        members.push(("band_lo".into(), Json::Float(band.lo)));
        members.push(("band_hi".into(), Json::Float(band.hi)));
        members.push(("agreement".into(), Json::Float(band.agreement)));
    }
    Json::Obj(members)
}

/// Consumer of finished map rows, invoked in map-point order.
pub trait MapSink {
    /// Consume one finished map point.
    fn accept(&mut self, row: &MapRow) -> Result<(), String>;

    /// Make everything accepted so far durable; called before the
    /// checkpoint records the row (same contract as the campaign's
    /// [`ResultSink::sync`](crate::campaign::ResultSink::sync)).
    fn sync(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Called once after the last row of a *complete* map (not after a
    /// depth-bounded partial run).
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Frontier CSV writer (streaming, constant memory).
#[derive(Debug)]
pub struct CsvMapSink<W: Write> {
    out: W,
    header_pending: bool,
}

impl<W: Write> CsvMapSink<W> {
    /// A sink that writes the header before the first row.
    pub fn new(out: W) -> Self {
        Self { out, header_pending: true }
    }

    /// A sink that appends rows only (resuming into an existing file).
    pub fn appending(out: W) -> Self {
        Self { out, header_pending: false }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> MapSink for CsvMapSink<W> {
    fn accept(&mut self, row: &MapRow) -> Result<(), String> {
        if self.header_pending {
            self.header_pending = false;
            // The first row decides the header: band columns are present
            // for all rows of a map or none (it is a property of the spec).
            let header =
                if row.band.is_some() { FRONTIER_BAND_CSV_HEADER } else { FRONTIER_CSV_HEADER };
            writeln!(self.out, "{header}").map_err(|e| format!("csv sink: {e}"))?;
        }
        writeln!(self.out, "{}", csv_row(row)).map_err(|e| format!("csv sink: {e}"))
    }

    fn sync(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("csv sink: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        if self.header_pending {
            self.header_pending = false;
            writeln!(self.out, "{FRONTIER_CSV_HEADER}").map_err(|e| format!("csv sink: {e}"))?;
        }
        self.out.flush().map_err(|e| format!("csv sink: {e}"))
    }
}

/// Frontier JSON-Lines writer.
#[derive(Debug)]
pub struct JsonMapSink<W: Write> {
    out: W,
}

impl<W: Write> JsonMapSink<W> {
    /// A sink writing one compact object per line (no header, so fresh and
    /// resumed maps construct it the same way).
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> MapSink for JsonMapSink<W> {
    fn accept(&mut self, row: &MapRow) -> Result<(), String> {
        writeln!(self.out, "{}", row_json(row).render()).map_err(|e| format!("jsonl sink: {e}"))
    }

    fn sync(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("jsonl sink: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("jsonl sink: {e}"))
    }
}

/// Buffer every row (tests, the bench harness).
#[derive(Debug, Default)]
pub struct MemoryMapSink {
    rows: Vec<MapRow>,
}

impl MemoryMapSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered rows, in map-point order.
    pub fn into_rows(self) -> Vec<MapRow> {
        self.rows
    }
}

impl MapSink for MemoryMapSink {
    fn accept(&mut self, row: &MapRow) -> Result<(), String> {
        self.rows.push(row.clone());
        Ok(())
    }
}

/// Exact rational midpoint of a bracket. Denominators double per
/// bisection step, so overflow means the bracket asks for more precision
/// than `u64` rationals hold — an error, not a wrap.
fn midpoint(lo: Rate, hi: Rate) -> Result<Rate, String> {
    let mid = Q::from(lo).add(hi.into()).and_then(|sum| sum.div(Q::int(2))).and_then(Q::rate);
    mid.map_err(|_| {
        let (a, b) = (rate_str(lo), rate_str(hi));
        format!("bisection midpoint of {a} and {b} overflows u64 rationals")
    })
}

/// Refuse a rate bracket whose bisection to `tol` leaves `u64` rationals.
/// After the `s` halvings `tol` needs, every probe lies on the grid
/// `lo + j·(hi − lo)/2^s` over the denominator `D·2^s`, where `D` is the
/// endpoints' common denominator, so that denominator and `hi` over it
/// must fit.
fn bisectable(lo: Rate, hi: Rate, tol: f64) -> Result<(), String> {
    let mut halvings = 0u32;
    let mut w = width(lo, hi);
    while w > tol {
        w /= 2.0;
        halvings += 1;
    }
    let den = u128::from(lo.den()) / gcd(lo.den().into(), hi.den().into()) * u128::from(hi.den());
    let grid = 1u128.checked_shl(halvings).and_then(|step| den.checked_mul(step));
    let top = grid.and_then(|g| (g / u128::from(hi.den())).checked_mul(hi.num().into()));
    match (grid, top) {
        (Some(grid), Some(top)) if grid <= u64::MAX.into() && top <= u64::MAX.into() => Ok(()),
        _ => {
            let (lo, hi) = (rate_str(lo), rate_str(hi));
            Err(format!(
                "bisecting [{lo}, {hi}] to tol {tol} takes {halvings} halvings, past the \
                 precision of u64 rationals"
            ))
        }
    }
}

/// Floored integer midpoint for the integer axes (`k`, `ell`).
fn midpoint_int(lo: Rate, hi: Rate) -> Rate {
    debug_assert!(lo.den() == 1 && hi.den() == 1);
    Rate::integer((lo.num() + hi.num()) / 2)
}

fn width(lo: Rate, hi: Rate) -> f64 {
    hi.as_f64() - lo.as_f64()
}

/// `a + b` as an exact rational, or `cap` if the result overflows `u64`
/// rationals or exceeds it (warm brackets clamp to the full bracket
/// anyway).
fn rate_add_capped(a: Rate, b: Rate, cap: Rate) -> Rate {
    match Q::from(a).add(b.into()).and_then(Q::rate) {
        Ok(sum) if sum.lt(&cap) => sum,
        _ => cap,
    }
}

/// `a − b` as an exact rational, or `floor` if the result is negative,
/// overflows `u64` rationals, or falls below it.
fn rate_sub_floored(a: Rate, b: Rate, floor: Rate) -> Rate {
    match Q::from(a).sub(b.into()).and_then(Q::rate) {
        Ok(diff) if floor.lt(&diff) => diff,
        _ => floor,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Continuation point waiting for its predecessor's boundary.
    Waiting,
    ProbeLo,
    ProbeHi,
    Bisect,
    Done(Status),
}

/// Strict-majority verdict of a lane batch: `Diverging` iff at least half
/// the lanes diverged — a tie on an even ensemble is conservatively
/// `Diverging` (half the streams blowing up is not stability). Lanes that
/// report `Inconclusive` count as stable, like solo probes.
pub fn majority_verdict(diverging: usize, lanes: usize) -> Verdict {
    if diverging * 2 >= lanes.max(1) {
        Verdict::Diverging
    } else {
        Verdict::Stable
    }
}

/// Per-point verdict-flip band and agreement tally over ensemble probes.
///
/// The band spans the *mixed* probes — those where lanes disagreed. For
/// the `rho`-like axes this is exactly "the lowest probed value where any
/// lane diverges through the highest where any lane is stable" (unanimous
/// verdicts always respect the final bracket, so the extremes of that
/// span are mixed probes), and unlike that formulation it stays correct
/// on the inverted `k` axis, where divergence lives on the low side.
#[derive(Clone, Copy, Debug, Default)]
struct EnsembleTally {
    /// Lowest and highest probed values whose lane batch was mixed.
    mixed_min: Option<Rate>,
    mixed_max: Option<Rate>,
    /// Lane verdicts matching their probe's majority verdict.
    matched: u64,
    /// Total lane verdicts (final batches only).
    total: u64,
    /// Widest batch seen (escalation audit).
    max_lanes: usize,
}

impl EnsembleTally {
    fn record(&mut self, rate: Rate, diverging: usize, lanes: usize) {
        if diverging > 0 && diverging < lanes {
            if self.mixed_min.is_none_or(|m| rate.cmp_exact(&m) == std::cmp::Ordering::Less) {
                self.mixed_min = Some(rate);
            }
            if self.mixed_max.is_none_or(|m| m.cmp_exact(&rate) == std::cmp::Ordering::Less) {
                self.mixed_max = Some(rate);
            }
        }
        let majority_div = majority_verdict(diverging, lanes) == Verdict::Diverging;
        self.matched += if majority_div { diverging } else { lanes - diverging } as u64;
        self.total += lanes as u64;
        self.max_lanes = self.max_lanes.max(lanes);
    }

    /// The band around the finished point's boundary estimate: degenerate
    /// (`lo == hi == boundary`, agreement exactly 1) when every probe was
    /// unanimous, else the mixed-probe span widened to include the
    /// boundary — so `band_lo <= boundary <= band_hi` always holds.
    fn band(&self, boundary: f64) -> BandStats {
        let (lo, hi) = match (self.mixed_min, self.mixed_max) {
            (Some(a), Some(b)) => (a.as_f64().min(boundary), b.as_f64().max(boundary)),
            _ => (boundary, boundary),
        };
        let agreement = if self.total == 0 { 1.0 } else { self.matched as f64 / self.total as f64 };
        BandStats { lo, hi, agreement, max_lanes: self.max_lanes }
    }
}

/// The bisection state of one map point.
#[derive(Clone, Debug)]
struct PointSearch {
    point: MapPoint,
    axis: SearchAxis,
    /// The template resolved at this point (expressions evaluated); the
    /// search axis field is overwritten per probe.
    base: ScenarioSpec,
    lo: Rate,
    hi: Rate,
    /// The spec's bracket at this point. Warm-started searches narrow
    /// `lo`/`hi` inside these; escape fallbacks restore them.
    full_lo: Rate,
    full_hi: Rate,
    /// Whether the current `hi` was already observed above the boundary —
    /// set by the low-side escape fallback, whose re-probe of `lo` can
    /// then jump straight to bisection.
    hi_observed: bool,
    /// Predecessor map-point index a continuation point warm-starts from.
    waiting_on: Option<usize>,
    /// Band/agreement tally; accumulates exactly for ensemble probes.
    tally: Option<EnsembleTally>,
    phase: Phase,
    /// The next rate to probe; `None` when the point is done or waiting.
    pending: Option<Rate>,
    probes: u32,
}

/// The scenario a probe of `rate` along `axis` runs at map point `point`,
/// whose resolved template is `base`.
fn probe_at(base: &ScenarioSpec, axis: SearchAxis, point: MapPoint, rate: Rate) -> ScenarioSpec {
    let mut spec = base.clone();
    match axis {
        SearchAxis::Rho => spec.rho = rate,
        SearchAxis::Beta => spec.beta = rate,
        SearchAxis::K => spec.k = rate.num() as usize,
        // The nearest achievable cap for the probed group count; where no
        // cap yields it exactly, this runs the closest ℓ below it.
        SearchAxis::Ell => spec.k = point.n.div_ceil(rate.num() as usize) + 1,
        // Probes inherit the template's fault spec (seed and the other
        // families) with only the jamming intensity overwritten.
        SearchAxis::JamRate => {
            spec.faults.get_or_insert_with(Default::default).jam = rate;
        }
    }
    spec
}

impl PointSearch {
    fn new(spec: &FrontierSpec, index: usize, point: MapPoint) -> Result<Self, String> {
        let env = ExprEnv::new(point.n, point.k);
        let at = |e: &str| format!("map point n={}, k={}: {e}", point.n, point.k);
        let base = spec.template.clone().resolve_at(&env).map_err(|e| at(&e))?;
        let lo = spec.lo.resolve(&env).map_err(|e| at(&format!("lo: {e}")))?;
        let hi = spec.hi.resolve(&env).map_err(|e| at(&format!("hi: {e}")))?;
        if !lo.lt(&hi) {
            return Err(at(&format!("bracket is empty (lo {} >= hi {})", lo, hi)));
        }
        if matches!(spec.axis, SearchAxis::Rho | SearchAxis::JamRate) && Rate::one().lt(&hi) {
            return Err(at(&format!(
                "{} bracket must stay within [0, 1], hi is {hi}",
                spec.axis.name()
            )));
        }
        if spec.axis.integer() {
            if lo.den() != 1 || hi.den() != 1 {
                return Err(at(&format!(
                    "{} bracket endpoints must be integers, got [{lo}, {hi}]",
                    spec.axis.name()
                )));
            }
            if lo.num() < 2 {
                return Err(at(&format!(
                    "{} bracket must start at 2 or above, lo is {lo}",
                    spec.axis.name()
                )));
            }
        } else {
            bisectable(lo, hi, spec.tol).map_err(|e| at(&e))?;
        }
        // Continuation points (every n after the first) wait for their
        // predecessor at the previous n (same k) before picking a bracket.
        let waiting_on = match spec.continuation {
            Some(Continuation::N) if index >= spec.ks.len() => Some(index - spec.ks.len()),
            _ => None,
        };
        let (phase, pending) =
            if waiting_on.is_some() { (Phase::Waiting, None) } else { (Phase::ProbeLo, Some(lo)) };
        // Even a bracket already narrower than tol probes both endpoints:
        // `converged` must always mean "lo observed stable, hi observed
        // diverging", never an untested assertion.
        Ok(Self {
            point,
            axis: spec.axis,
            base,
            lo,
            hi,
            full_lo: lo,
            full_hi: hi,
            hi_observed: false,
            waiting_on,
            tally: None,
            phase,
            pending,
            probes: 0,
        })
    }

    /// Start a waiting continuation point, warm-starting its bracket from
    /// the predecessor's final one (widened by its own width on each side,
    /// clamped to this point's full bracket) when the predecessor
    /// converged; escape statuses carry no boundary to continue from, so
    /// the full bracket is searched instead.
    fn activate(&mut self, pred_status: Status, pred_lo: Rate, pred_hi: Rate) {
        debug_assert_eq!(self.phase, Phase::Waiting);
        if pred_status == Status::Converged {
            let w = rate_sub_floored(pred_hi, pred_lo, Rate::zero());
            let warm_lo = rate_sub_floored(pred_lo, w, self.full_lo);
            let warm_hi = rate_add_capped(pred_hi, w, self.full_hi);
            if warm_lo.lt(&warm_hi) {
                self.lo = warm_lo;
                self.hi = warm_hi;
            }
        }
        self.waiting_on = None;
        self.phase = Phase::ProbeLo;
        self.pending = Some(self.lo);
    }

    fn finish(&mut self, status: Status) {
        self.phase = Phase::Done(status);
        self.pending = None;
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Done(_))
    }

    /// The spec for the pending probe, or `None` when done or waiting.
    fn probe_spec(&self) -> Option<ScenarioSpec> {
        Some(probe_at(&self.base, self.axis, self.point, self.pending?))
    }

    /// Advance the state machine with one probe verdict, feeding the band
    /// tally when the probe ran a lane ensemble (`(diverging, lanes)` of
    /// its final batch).
    fn apply_probe(
        &mut self,
        verdict: Verdict,
        ensemble: Option<(usize, usize)>,
        tol: f64,
    ) -> Result<(), String> {
        if let (Some((diverging, lanes)), Some(rate)) = (ensemble, self.pending) {
            self.tally.get_or_insert_with(EnsembleTally::default).record(rate, diverging, lanes);
        }
        self.apply(verdict, tol)
    }

    /// Advance the state machine with one probe verdict. Only `Diverging`
    /// counts as above the boundary on the `rho`-like axes; the `k` axis
    /// is inverted (small caps diverge), which the `above` transform
    /// absorbs so one bracket-narrowing machine serves every axis.
    fn apply(&mut self, verdict: Verdict, tol: f64) -> Result<(), String> {
        let diverged = verdict == Verdict::Diverging;
        let above = if self.axis.diverges_high() { diverged } else { !diverged };
        let escape_low =
            if self.axis.diverges_high() { Status::AllDiverging } else { Status::AllStable };
        let escape_high =
            if self.axis.diverges_high() { Status::AllStable } else { Status::AllDiverging };
        match self.phase {
            Phase::Waiting => {
                return Err(format!(
                    "map point n={}, k={} received a probe before its predecessor finished",
                    self.point.n, self.point.k
                ))
            }
            Phase::Done(_) => {
                return Err(format!(
                    "map point n={}, k={} received a probe after completing",
                    self.point.n, self.point.k
                ))
            }
            Phase::ProbeLo => {
                self.probes += 1;
                if above {
                    if self.full_lo.lt(&self.lo) {
                        // The boundary escaped a warm bracket on the low
                        // side: the probed warm `lo` is an above-boundary
                        // observation — reuse it as the bracket's `hi` and
                        // fall back to the full lower endpoint.
                        self.hi = self.lo;
                        self.hi_observed = true;
                        self.lo = self.full_lo;
                        self.pending = Some(self.lo);
                    } else {
                        self.finish(escape_low);
                    }
                } else if self.hi_observed {
                    self.phase = Phase::Bisect;
                    self.advance(tol)?;
                } else {
                    self.phase = Phase::ProbeHi;
                    self.pending = Some(self.hi);
                }
            }
            Phase::ProbeHi => {
                self.probes += 1;
                if above {
                    self.phase = Phase::Bisect;
                    self.advance(tol)?;
                } else if self.hi.lt(&self.full_hi) {
                    // Escaped a warm bracket on the high side: the probed
                    // warm `hi` becomes the bracket's `lo`.
                    self.lo = self.hi;
                    self.hi = self.full_hi;
                    self.pending = Some(self.hi);
                } else {
                    self.finish(escape_high);
                }
            }
            Phase::Bisect => {
                self.probes += 1;
                let mid = self.pending.take().expect("bisect phase always has a pending probe");
                if above {
                    self.hi = mid;
                } else {
                    self.lo = mid;
                }
                self.advance(tol)?;
            }
        }
        Ok(())
    }

    /// Converge or schedule the next midpoint probe. Integer axes floor
    /// the midpoint and converge at bracket width `max(tol, 1)`.
    fn advance(&mut self, tol: f64) -> Result<(), String> {
        let tol = if self.axis.integer() { tol.max(1.0) } else { tol };
        if width(self.lo, self.hi) <= tol {
            self.finish(Status::Converged);
        } else if self.axis.integer() {
            self.pending = Some(midpoint_int(self.lo, self.hi));
        } else {
            let at = |e| format!("map point n={}, k={}: {e}", self.point.n, self.point.k);
            self.pending = Some(midpoint(self.lo, self.hi).map_err(at)?);
        }
        Ok(())
    }

    fn row(&self, index: usize) -> MapRow {
        let Phase::Done(status) = self.phase else {
            unreachable!("rows are emitted only for completed points");
        };
        let boundary = (self.lo.as_f64() + self.hi.as_f64()) / 2.0;
        MapRow {
            index,
            point: self.point,
            axis: self.axis,
            lo: self.lo,
            hi: self.hi,
            probes: self.probes,
            status,
            band: self.tally.map(|t| t.band(boundary)),
        }
    }
}

/// What a frontier run did — the CLI's summary line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierSummary {
    /// Map points in the spec.
    pub points: usize,
    /// Points whose rows are in the output (equal to `points` for a
    /// complete run; fewer after a depth-bounded partial run).
    pub completed: usize,
    /// Probes executed **by this run** (excludes probes replayed from a
    /// checkpoint).
    pub probes_run: usize,
    /// The deepest probe this run executed ([`Frontier::max_waves`]): the
    /// waves a search probing every point in lock step would have needed.
    pub waves: usize,
    /// Probes (of `probes_run`) whose execution violated a model
    /// invariant. Their verdicts still drive the bisection — violations
    /// don't invalidate a queue-growth observation, and the duty-cycle
    /// baseline violates by design — but a non-zero count means the mapped
    /// boundary deserves scrutiny; the CLI exits non-zero on it.
    pub unclean_probes: usize,
    /// Probes (of `probes_run`) whose lane batch was widened by the
    /// `escalate` rule — i.e. whose base ensemble disagreed.
    pub escalated_probes: usize,
}

/// A probe's lanes, tallied as they land.
#[derive(Debug, Default)]
struct ProbeTally {
    /// Lanes queued or running.
    outstanding: usize,
    /// Largest seed issued; escalation adds fresh seeds past it.
    top_seed: u64,
    /// Landed lanes, and how many of them diverged.
    lanes: usize,
    diverging: usize,
    /// The latest landed lane's verdict: a solo probe's verdict.
    verdict: Option<Verdict>,
    /// Whether any landed lane violated a model invariant.
    unclean: bool,
    /// Simulated rounds summed over the landed lanes.
    rounds: u64,
    /// Worker-measured lane time summed over the landed lanes, µs.
    wall_us: u64,
    /// The first lane error; the probe then has no verdict.
    error: Option<String>,
}

impl ProbeTally {
    fn new(seeds: &[u64]) -> Self {
        let top_seed = seeds.iter().copied().max().unwrap_or(0);
        Self { outstanding: seeds.len(), top_seed, ..Self::default() }
    }

    /// Fold one landed lane into the tally.
    fn land(&mut self, run: ScenarioRun, wall_us: u64) {
        self.outstanding -= 1;
        self.wall_us += wall_us;
        match run.outcome {
            Ok(report) => {
                let verdict = report.stability.verdict;
                self.lanes += 1;
                self.diverging += usize::from(verdict == Verdict::Diverging);
                self.verdict = Some(verdict);
                self.unclean |= !report.clean();
                self.rounds += report.metrics.rounds;
            }
            Err(e) => {
                self.error.get_or_insert_with(|| {
                    format!("frontier probe {}: {e}", run.spec.display_label())
                });
            }
        }
    }

    /// The seeds to add once every lane has landed: while the lanes
    /// disagree and number fewer than `max_seeds`, `step` fresh seeds
    /// `max(seeds so far) + 1, + 2, …` (capped at `max_seeds`); none
    /// otherwise. Lanes are deterministic, so the landed ones never need
    /// re-running.
    fn escalation(&mut self, escalate: Option<EscalateSpec>) -> Vec<u64> {
        let mixed = self.diverging > 0 && self.diverging < self.lanes;
        match escalate {
            Some(esc) if self.error.is_none() && mixed && self.lanes < esc.max_seeds => {
                let add = esc.step.min(esc.max_seeds - self.lanes);
                let seeds: Vec<u64> =
                    (1..=add as u64).map(|i| self.top_seed.wrapping_add(i)).collect();
                self.top_seed = seeds.iter().copied().fold(self.top_seed, u64::max);
                self.outstanding += add;
                seeds
            }
            _ => Vec::new(),
        }
    }
}

/// A landed probe whose verdict the committer has applied: its map point,
/// its verdict and, for an ensemble, its `(diverging, lanes)` split.
type Applied = (usize, Verdict, Option<(usize, usize)>);

/// A frontier run's queue: the lanes of each point's probe in flight, each
/// a solo run of the probe with its seed swapped in. When a probe's last
/// lane lands, its worker applies the escalation rule and pushes only the
/// new lanes to the *front*, so one worker runs lanes probe by probe; a
/// probe with nothing to add is handed to the committer.
struct Lanes {
    /// `(point, seed)` lanes still to start.
    queue: VecDeque<(usize, u64)>,
    /// Each map point's probe in flight: its scenario and its tally.
    probes: Vec<Option<(ScenarioSpec, ProbeTally)>>,
    /// Points whose probe has landed, in landing order.
    landed: VecDeque<usize>,
    escalate: Option<EscalateSpec>,
}

impl Lanes {
    /// Queue `probe` of map point `point` at the back, one lane per base
    /// seed: `seeds`, or the probe's own seed when `seeds` is empty.
    fn queue_probe(&mut self, point: usize, probe: ScenarioSpec, seeds: &[u64]) {
        let base = if seeds.is_empty() { std::slice::from_ref(&probe.seed) } else { seeds };
        self.queue.extend(base.iter().map(|&seed| (point, seed)));
        let tally = ProbeTally::new(base);
        self.probes[point] = Some((probe, tally));
    }
}

impl Queue for Lanes {
    type Unit = (usize, ScenarioSpec);
    type Done = (ScenarioRun, u64);

    fn pop(&mut self) -> Option<Self::Unit> {
        let (point, seed) = self.queue.pop_front()?;
        let (probe, _) = self.probes[point].as_ref().expect("a queued lane's probe is in flight");
        let mut lane = probe.clone();
        lane.seed = seed;
        Some((point, lane))
    }

    fn park(&mut self, (point, _): Self::Unit, (run, wall_us): Self::Done) -> Option<Wake> {
        let (_, tally) = self.probes[point].as_mut().expect("a running lane's probe is in flight");
        tally.land(run, wall_us);
        if tally.outstanding > 0 {
            return None;
        }
        let added = tally.escalation(self.escalate);
        if added.is_empty() {
            self.landed.push_back(point);
            return Some(Wake::Committer);
        }
        for seed in added.into_iter().rev() {
            self.queue.push_front((point, seed));
        }
        Some(Wake::Workers)
    }
}

/// The adaptive frontier search engine.
#[derive(Clone, Debug)]
pub struct Frontier {
    threads: usize,
    max_waves: Option<usize>,
}

impl Default for Frontier {
    fn default() -> Self {
        Self::new()
    }
}

impl Frontier {
    /// An engine sized to the machine.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { threads, max_waves: None }
    }

    /// Set the probe worker count (`1` = serial; output bytes do not
    /// depend on this).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Start no probe deeper than `max_waves`, then stop with the
    /// checkpoint (when given) positioned for a later resume — the
    /// bounded-work knob mirroring `emac campaign --limit`. A point's probes
    /// have depths 1, 2, … in this run; a continuation point's count on
    /// from its predecessor's last.
    pub fn max_waves(mut self, max_waves: usize) -> Self {
        self.max_waves = Some(max_waves);
        self
    }

    /// Run the search, emitting each finished map point's row to `sink`
    /// **in map-point order**. With a checkpoint, every probe verdict and
    /// emitted row is recorded durably (probe lines before rows they
    /// unlock), so a killed run resumes mid-bisection; the caller must
    /// have reconciled an appendable output with
    /// [`FrontierCheckpoint::rows_written`] first (the CLI does).
    ///
    /// Probes run as lanes built through `factory` on one worker pool, and
    /// no probe waits for another point's (see the module docs). Per-point
    /// probe *sequences* depend only on that point's own verdicts, so the
    /// map and each point's probe records are identical across thread
    /// counts and interruption patterns; only their interleaving may differ.
    pub fn run_into<F>(
        &self,
        spec: &FrontierSpec,
        factory: &F,
        sink: &mut dyn MapSink,
        checkpoint: Option<&mut FrontierCheckpoint>,
    ) -> Result<FrontierSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        self.run_into_observed(spec, factory, sink, checkpoint, &mut Observer::new())
    }

    /// [`Frontier::run_into`] with an observability seam: probe verdicts
    /// (with the summed worker time of their lanes), escalations, emitted
    /// rows (with the rounds their lanes simulated), and the latency of
    /// every checkpoint append are recorded on `obs` as they happen.
    /// Telemetry only — the sink bytes and checkpoint records are those
    /// of an unobserved run, and wall time is sampled around lanes and at
    /// probe and row boundaries, never inside the round loop.
    pub fn run_into_observed<F>(
        &self,
        spec: &FrontierSpec,
        factory: &F,
        sink: &mut dyn MapSink,
        checkpoint: Option<&mut FrontierCheckpoint>,
        obs: &mut Observer,
    ) -> Result<FrontierSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        let all: Vec<usize> = (0..spec.points().len()).collect();
        self.run_subset_into_observed(spec, &all, factory, sink, checkpoint, obs)
    }

    /// [`Frontier::run_into_observed`] over only the map points in
    /// `indices` (strictly ascending global indices) — the shard worker's
    /// entry point, and the body of the other two. Rows are emitted in
    /// ascending `indices` order carrying their *global* map indices, so a
    /// merged fleet run reproduces the single-process bytes exactly. The
    /// checkpoint is shared across a shard's units
    /// ([`FrontierCheckpoint::fresh_sharded`]): replay skips probes of
    /// points outside `indices`, and this subset's recorded rows must form
    /// an in-order prefix of `indices`. A continuation point's predecessor
    /// must be in the subset (work units are whole chains), refused
    /// otherwise.
    pub fn run_subset_into_observed<F>(
        &self,
        spec: &FrontierSpec,
        indices: &[usize],
        factory: &F,
        sink: &mut dyn MapSink,
        mut checkpoint: Option<&mut FrontierCheckpoint>,
        obs: &mut Observer,
    ) -> Result<FrontierSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        let points = spec.points();
        let ensemble = spec.seeds.len() > 1;
        let escalate = spec.escalate.filter(|_| ensemble);
        let mut searches: Vec<PointSearch> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| PointSearch::new(spec, i, p))
            .collect::<Result<_, _>>()?;

        let mut member = vec![false; searches.len()];
        for (pos, &i) in indices.iter().enumerate() {
            if i >= searches.len() {
                return Err(format!(
                    "subset index {i} out of range for a {}-point map",
                    searches.len()
                ));
            }
            if pos > 0 && indices[pos - 1] >= i {
                return Err("subset indices must be strictly ascending".into());
            }
            member[i] = true;
        }
        for &i in indices {
            if let Some(pred) = searches[i].waiting_on {
                if !member[pred] {
                    return Err(format!(
                        "map point {i} continues from point {pred}, which is outside this \
                         subset; continuation chains must stay on one shard"
                    ));
                }
            }
        }

        // Replay checkpointed probes: bisection is deterministic in the
        // verdict sequence, so the brackets land exactly where the killed
        // run left them. Waiting continuation points activate on their
        // first replayed probe — activation is a pure function of the
        // predecessor's final state, so it needs no record of its own.
        let mut emitted = 0;
        if let Some(ck) = checkpoint.as_deref_mut() {
            if ck.points() != searches.len() {
                return Err(format!(
                    "checkpoint tracks {} map points, spec has {}",
                    ck.points(),
                    searches.len()
                ));
            }
            for rec in ck.probes() {
                let p = rec.point;
                if p >= searches.len() {
                    return Err(format!("checkpoint records out-of-range map point {p}"));
                }
                if !member[p] {
                    // Another unit's probe (a sharded checkpoint is shared
                    // across all units a shard claims) — not ours to replay.
                    continue;
                }
                if searches[p].phase == Phase::Waiting {
                    let pred = searches[p].waiting_on.expect("waiting points have a predecessor");
                    let Phase::Done(status) = searches[pred].phase else {
                        return Err(format!(
                            "checkpoint probes map point {p} before its predecessor finished"
                        ));
                    };
                    let (pred_lo, pred_hi) = (searches[pred].lo, searches[pred].hi);
                    searches[p].activate(status, pred_lo, pred_hi);
                }
                match (ensemble, rec.lanes) {
                    (true, Some((diverging, lanes))) => {
                        searches[p].apply_probe(rec.verdict, Some((diverging, lanes)), spec.tol)?
                    }
                    (true, None) => {
                        return Err(
                            "checkpoint predates verdict-flip bands (its probe lines carry no \
                             lane tallies) and cannot replay a seed-ensemble spec; delete it and \
                             restart the map"
                                .into(),
                        )
                    }
                    (false, None) => searches[p].apply(rec.verdict, spec.tol)?,
                    (false, Some(_)) => {
                        return Err(
                            "checkpoint carries ensemble lane tallies but the spec has no seed \
                             ensemble; delete it and restart the map"
                                .into(),
                        )
                    }
                }
            }
            let recorded: Vec<usize> =
                ck.row_indices().iter().copied().filter(|&i| member[i]).collect();
            if recorded.as_slice() != &indices[..recorded.len()] {
                return Err(
                    "checkpoint rows for this subset are out of order; refusing to resume".into()
                );
            }
            emitted = recorded.len();
            if indices[..emitted].iter().any(|&i| !searches[i].done()) {
                return Err("checkpoint rows outrun its probes; refusing to resume".into());
            }
        }

        // Per map point: rounds simulated by the lanes this run ran, and
        // probe depth (see `max_waves`).
        let mut point_rounds = vec![0u64; searches.len()];
        let mut depth = vec![0usize; searches.len()];
        let max_depth = self.max_waves.unwrap_or(usize::MAX);
        let mut summary = FrontierSummary {
            points: indices.len(),
            completed: emitted,
            probes_run: 0,
            waves: 0,
            unclean_probes: 0,
            escalated_probes: 0,
        };
        let lanes = Lanes {
            queue: VecDeque::new(),
            probes: (0..searches.len()).map(|_| None).collect(),
            landed: VecDeque::new(),
            escalate,
        };
        let execute = |(_, lane): &(usize, ScenarioSpec)| {
            // Wall time never enters a verdict or the checkpoint; it only
            // feeds `Probe` events.
            let started = Instant::now();
            let run = crate::campaign::execute_one(lane, factory);
            (run, started.elapsed().as_micros() as u64)
        };
        // The last probe to land, its verdict applied but its record not yet
        // durable: the record waits until the next probes are queued, so
        // the workers run them while the committer syncs.
        let mut unrecorded: Option<Applied> = None;
        commit::pool(self.threads, lanes, execute, |pool| loop {
            // Activate continuation points whose predecessor finished —
            // the warm bracket depends only on that point's final state,
            // never on scheduling.
            for &i in indices {
                if searches[i].phase == Phase::Waiting {
                    let pred = searches[i].waiting_on.expect("waiting points have a predecessor");
                    if let Phase::Done(status) = searches[pred].phase {
                        let (pred_lo, pred_hi) = (searches[pred].lo, searches[pred].hi);
                        searches[i].activate(status, pred_lo, pred_hi);
                        depth[i] = depth[pred];
                    }
                }
            }

            // Queue each idle point's next probe behind the lanes already
            // queued, unless it would run deeper than `max_waves`.
            let busy = pool.update(|lanes| {
                for &i in indices {
                    if lanes.probes[i].is_none() && depth[i] < max_depth {
                        if let Some(probe) = searches[i].probe_spec() {
                            depth[i] += 1;
                            lanes.queue_probe(i, probe, &spec.seeds);
                        }
                    }
                }
                lanes.probes.iter().any(Option::is_some)
            });

            // Make the landed probe durable, then the rows it unlocks: a
            // point's records keep their order, since its next probe is
            // taken only on a later pass, and a row never precedes the
            // probe records that finished it.
            if let (Some((i, verdict, lanes)), Some(ck)) =
                (unrecorded.take(), checkpoint.as_deref_mut())
            {
                let barrier = Instant::now();
                match lanes {
                    Some((diverging, lanes)) => {
                        ck.record_ensemble_probe(i, verdict, diverging, lanes)?
                    }
                    None => ck.record_probe(i, verdict)?,
                }
                obs.record(&ObsEvent::Fsync { wall_us: barrier.elapsed().as_micros() as u64 });
            }

            // Emit rows in map order as soon as every earlier point is out
            // of the way — resumed and uninterrupted runs write identical
            // bytes because this cursor never skips ahead.
            while emitted < indices.len() && searches[indices[emitted]].done() {
                let g = indices[emitted];
                let row = searches[g].row(g);
                sink.accept(&row)?;
                let wall_us = obs.boundary_us();
                let rounds = point_rounds[g];
                obs.record(&ObsEvent::Row { index: g as u64, rounds, clean: true, wall_us });
                if let Some(ck) = checkpoint.as_deref_mut() {
                    let barrier = Instant::now();
                    sink.sync()?;
                    ck.record_row(g)?;
                    obs.record(&ObsEvent::Fsync { wall_us: barrier.elapsed().as_micros() as u64 });
                }
                emitted += 1;
                summary.completed = emitted;
            }
            if !busy {
                break Ok(());
            }

            let (i, tally) = pool
                .take(|lanes| {
                    let i = lanes.landed.pop_front()?;
                    Some((i, lanes.probes[i].take().expect("a landed probe is in flight").1))
                })
                .ok_or("a frontier worker panicked")?;
            if let Some(e) = tally.error {
                break Err(e);
            }
            // Surfaced through the summary (and the CLI exit code) rather
            // than dropped — see [`FrontierSummary::unclean_probes`].
            summary.unclean_probes += usize::from(tally.unclean);
            // An ensemble probe counts as above the boundary on the
            // strict-majority verdict of its lanes.
            let point = i as u64;
            let (verdict, lanes) = if ensemble {
                if tally.lanes > spec.seeds.len() {
                    summary.escalated_probes += 1;
                    obs.record(&ObsEvent::Escalation { point, lanes: tally.lanes as u64 });
                }
                let split = (tally.diverging, tally.lanes);
                (majority_verdict(tally.diverging, tally.lanes), Some(split))
            } else {
                (tally.verdict.expect("a landed solo probe has a verdict"), None)
            };
            obs.record(&ObsEvent::Probe {
                point,
                diverging: verdict == Verdict::Diverging,
                lanes: tally.lanes as u64,
                wall_us: tally.wall_us,
            });
            searches[i].apply_probe(verdict, lanes, spec.tol)?;
            unrecorded = Some((i, verdict, lanes));
            point_rounds[i] += tally.rounds;
            summary.probes_run += 1;
            summary.waves = summary.waves.max(depth[i]);
        })?;

        if indices.iter().all(|&i| searches[i].done()) {
            sink.finish()?;
        } else if indices.iter().all(|&i| searches[i].pending.is_none()) {
            // Unreachable by construction: a continuation point's
            // predecessor always precedes it, so some probe is runnable.
            return Err("frontier stalled: unfinished points but no runnable probes".into());
        }
        Ok(summary) // partial if `max_waves` held a probe back: no `sink.finish()`
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_defaults_and_rejects_junk() {
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "k-cycle", "adversary": "uniform",
                "n": 9, "k": 3, "rounds": 1000}}"#,
        )
        .unwrap();
        assert_eq!(spec.axis, SearchAxis::Rho);
        assert_eq!(spec.tol, 0.01);
        assert_eq!(spec.points(), vec![MapPoint { n: 9, k: 3 }]);

        let err = FrontierSpec::parse("{}").unwrap_err();
        assert!(err.contains("template"), "{err}");
        let err = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b"}, "bogus": 1}"#,
        )
        .unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let err = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b"}, "axis": "seed"}"#,
        )
        .unwrap_err();
        assert!(err.contains("rho, beta, k, ell, or jam_rate"), "{err}");
        let err = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b"}, "map": {"seed": [1]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown map axis"), "{err}");
        let err =
            FrontierSpec::parse(r#"{"template": {"algorithm": "a", "adversary": "b"}, "tol": 0}"#)
                .unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn map_points_expand_n_major() {
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b"},
                "map": {"n": [9, 13], "k": [3, 4]}}"#,
        )
        .unwrap();
        let pts = spec.points();
        assert_eq!(
            pts,
            vec![
                MapPoint { n: 9, k: 3 },
                MapPoint { n: 9, k: 4 },
                MapPoint { n: 13, k: 3 },
                MapPoint { n: 13, k: 4 },
            ]
        );
    }

    #[test]
    fn digest_is_sensitive_to_every_knob() {
        let base = r#"{"template": {"algorithm": "a", "adversary": "b"}, "tol": 0.01}"#;
        let d = |text: &str, tag: &str| FrontierSpec::parse(text).unwrap().digest(tag);
        assert_eq!(d(base, "csv"), d(base, "csv"), "deterministic");
        assert_ne!(d(base, "csv"), d(base, "jsonl"), "format bound");
        let edited = base.replace("0.01", "0.02");
        assert_ne!(d(base, "csv"), d(&edited, "csv"), "tol bound");
        let edited = base.replace("\"b\"", "\"c\"");
        assert_ne!(d(base, "csv"), d(&edited, "csv"), "template bound");
    }

    #[test]
    fn midpoint_is_exact_and_guards_overflow() {
        assert_eq!(midpoint(Rate::zero(), Rate::one()).unwrap(), Rate::new(1, 2));
        assert_eq!(midpoint(Rate::new(1, 5), Rate::new(1, 4)).unwrap(), Rate::new(9, 40));
        // repeated halving stays exact well past any sane tolerance
        // (50 halvings ≈ width 2⁻⁵⁰, far below the 1e-9 tol floor)
        let (mut lo, mut hi) = (Rate::zero(), Rate::one());
        for _ in 0..25 {
            hi = midpoint(lo, hi).unwrap();
            lo = midpoint(lo, hi).unwrap();
        }
        assert!(lo.lt(&hi));
        let err = midpoint(Rate::new(1, u64::MAX), Rate::new(2, u64::MAX - 1)).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn a_bracket_at_the_edge_of_u64_bisects_exactly_then_overflows_by_name() {
        // Cross-multiplied, these endpoints' numerators pass i128 and their
        // sum passes u128; `Q` adds over the common denominator instead.
        let lo: Rate = "16602069666338596864/18446744073709551615".parse().unwrap();
        let hi: Rate = "18446744073709551614/18446744073709551615".parse().unwrap();
        let mid = midpoint(lo, hi).unwrap();
        assert_eq!(mid, Rate::new(5_841_468_956_674_691_413, 6_148_914_691_236_517_205));
        let err = midpoint(lo, mid).unwrap_err();
        assert!(err.starts_with("bisection midpoint of 16602069666338596864/"), "{err}");
        assert!(err.ends_with("overflows u64 rationals"), "{err}");
        let width = Rate::new(1_844_674_407_370_954_750, 18_446_744_073_709_551_615);
        assert_eq!(rate_sub_floored(hi, lo, Rate::zero()), width);
        assert_eq!(rate_add_capped(lo, width, Rate::one()), hi);
    }

    #[test]
    fn a_bracket_whose_bisection_passes_u64_is_refused_by_name() {
        // The bracket needs 4 halvings to reach tol 0.01, and its
        // endpoints' denominator 2^64 − 1 times 2^4 passes u64.
        let template = r#"{"template": {"algorithm": "a", "adversary": "b", "n": 4, "k": 3,
            "rounds": 100}, "tol": 0.01,"#;
        let spec = |bracket: &str| FrontierSpec::parse(&format!("{template} {bracket}}}"));
        let err = spec(
            r#""lo": "16602069666338596864/18446744073709551615",
                "hi": "18446744073709551614/18446744073709551615""#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "map point n=4, k=3: bisecting [16602069666338596864/18446744073709551615, \
             18446744073709551614/18446744073709551615] to tol 0.01 takes 4 halvings, past \
             the precision of u64 rationals"
        );
        // `hi` over the grid's denominator must fit too: `hi` = 2^40 needs
        // 47 halvings, and its numerator 2^87 over the grid's 2^47 does not
        // fit; `hi` = 2^20 needs 27, and 2^47 fits.
        let err = spec(r#""axis": "beta", "lo": "0", "hi": "1099511627776""#).unwrap_err();
        assert!(err.ends_with("takes 47 halvings, past the precision of u64 rationals"), "{err}");
        spec(r#""axis": "beta", "lo": "0", "hi": "1048576""#).unwrap();
        // A warm-started bracket is bounded only at run time, where a
        // midpoint past u64 names its point.
        let spec = spec(r#""lo": "0", "hi": "1""#).unwrap();
        let mut search = PointSearch::new(&spec, 0, MapPoint { n: 4, k: 3 }).unwrap();
        search.lo = "16602069666338596864/18446744073709551615".parse().unwrap();
        search.hi = "18446744073709551614/18446744073709551615".parse().unwrap();
        search.phase = Phase::ProbeHi;
        search.apply(Verdict::Diverging, spec.tol).unwrap();
        let err = search.apply(Verdict::Diverging, spec.tol).unwrap_err();
        assert!(err.starts_with("map point n=4, k=3: bisection midpoint of "), "{err}");
        assert!(err.ends_with(" overflows u64 rationals"), "{err}");
    }

    #[test]
    fn point_search_state_machine_brackets_a_known_boundary() {
        // Oracle: diverges strictly above 1/5. tol 1/32.
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 9, "k": 3,
                "rounds": 100},
                "lo": "0", "hi": "1/2", "tol": 0.03125}"#,
        )
        .unwrap();
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        let boundary = Rate::new(1, 5);
        let mut guard = 0;
        while let Some(rate) = s.pending {
            let verdict = if boundary.lt(&rate) { Verdict::Diverging } else { Verdict::Stable };
            s.apply(verdict, spec.tol).unwrap();
            guard += 1;
            assert!(guard < 32, "search must terminate");
        }
        let row = s.row(0);
        assert_eq!(row.status, Status::Converged);
        assert!(width(row.lo, row.hi) <= spec.tol);
        // the bracket straddles the oracle boundary
        assert!(!boundary.lt(&row.lo), "lo {} <= boundary", row.lo);
        assert!(!row.hi.lt(&boundary), "hi {} >= boundary", row.hi);
        // probe a completed point => error
        assert!(s.apply(Verdict::Stable, spec.tol).is_err());
    }

    #[test]
    fn endpoint_probes_classify_degenerate_brackets() {
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 9, "k": 3,
                "rounds": 100}, "lo": "1/4", "hi": "1/2", "tol": 0.01}"#,
        )
        .unwrap();
        // boundary below lo: first probe diverges
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        s.apply(Verdict::Diverging, spec.tol).unwrap();
        assert_eq!(s.row(0).status, Status::AllDiverging);
        assert_eq!(s.row(0).probes, 1);
        // boundary above hi: lo stable, hi stable
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        s.apply(Verdict::Stable, spec.tol).unwrap();
        s.apply(Verdict::Inconclusive, spec.tol).unwrap(); // counts as stable
        assert_eq!(s.row(0).status, Status::AllStable);
    }

    #[test]
    fn brackets_narrower_than_tol_still_probe_both_endpoints() {
        // `converged` must mean "lo observed stable AND hi observed
        // diverging" — never a zero-probe assertion about an untested
        // bracket.
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 9, "k": 3,
                "rounds": 100}, "lo": "1/4", "hi": "26/100", "tol": 0.5}"#,
        )
        .unwrap();
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        assert!(!s.done(), "narrow bracket must not be pre-converged");
        s.apply(Verdict::Stable, spec.tol).unwrap();
        s.apply(Verdict::Diverging, spec.tol).unwrap();
        let row = s.row(0);
        assert_eq!((row.status, row.probes), (Status::Converged, 2));
        // ... and the boundary escaping such a bracket is reported honestly
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        s.apply(Verdict::Stable, spec.tol).unwrap();
        s.apply(Verdict::Stable, spec.tol).unwrap();
        assert_eq!(s.row(0).status, Status::AllStable);
    }

    #[test]
    fn brackets_are_validated_per_point() {
        // A bracket the point search refuses is refused when the spec is
        // parsed, before any output exists, naming the point.
        let refused = |text: &str, needle: &str| {
            let err = FrontierSpec::parse(text).unwrap_err();
            assert!(err.contains("map point n=") && err.contains(needle), "{err}");
        };
        refused(
            r#"{"template": {"algorithm": "a", "adversary": "b"},
                "lo": "1/2", "hi": "1/2"}"#,
            "bracket is empty",
        );
        // n=4, k=3: 2k/n = 3/2 > 1 — rho brackets must stay in [0, 1]
        refused(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 4},
                "hi": "2 * oblivious_threshold"}"#,
            "within [0, 1]",
        );
        // integer axes reject fractional and degenerate endpoints
        refused(
            r#"{"template": {"algorithm": "a", "adversary": "b"},
                "axis": "k", "lo": "1/2", "hi": "6"}"#,
            "must be integers",
        );
        refused(
            r#"{"template": {"algorithm": "a", "adversary": "b"},
                "axis": "ell", "lo": "1", "hi": "6"}"#,
            "start at 2",
        );
        // ... including the default lo of 0: n splits into no 0 groups
        refused(
            r#"{"template": {"algorithm": "a", "adversary": "b"},
                "axis": "ell", "hi": "6"}"#,
            "start at 2",
        );
    }

    #[test]
    fn csv_row_is_fixed_format() {
        let mut row = MapRow {
            index: 0,
            point: MapPoint { n: 9, k: 3 },
            axis: SearchAxis::Rho,
            lo: Rate::new(3, 16),
            hi: Rate::new(7, 32),
            probes: 7,
            status: Status::Converged,
            band: None,
        };
        assert_eq!(csv_row(&row), "9,3,rho,3/16,7/32,0.203125,7,converged");
        let json = row_json(&row).render();
        assert!(json.starts_with("{\"index\":0,\"n\":9,"), "{json}");
        assert!(json.contains("\"status\":\"converged\""), "{json}");
        assert!(!json.contains("band_lo"), "{json}");

        // band columns append after the legacy columns, which stay
        // byte-for-byte — a band row minus its last three fields is a
        // legacy row
        row.band = Some(BandStats { lo: 0.1875, hi: 0.21875, agreement: 0.9, max_lanes: 7 });
        let line = csv_row(&row);
        assert_eq!(line, "9,3,rho,3/16,7/32,0.203125,7,converged,0.187500,0.218750,0.900000");
        assert!(line.starts_with("9,3,rho,3/16,7/32,0.203125,7,converged"));
        let json = row_json(&row).render();
        assert!(json.contains("\"band_lo\":0.1875"), "{json}");
        assert!(json.contains("\"agreement\":0.9"), "{json}");
    }

    #[test]
    fn strict_majority_ties_are_diverging() {
        // Satellite: the tie rule is pinned — half the lanes blowing up
        // is not stability.
        assert_eq!(majority_verdict(0, 4), Verdict::Stable);
        assert_eq!(majority_verdict(1, 4), Verdict::Stable);
        assert_eq!(majority_verdict(2, 4), Verdict::Diverging);
        assert_eq!(majority_verdict(3, 4), Verdict::Diverging);
        assert_eq!(majority_verdict(1, 2), Verdict::Diverging);
        assert_eq!(majority_verdict(2, 5), Verdict::Stable);
        assert_eq!(majority_verdict(3, 5), Verdict::Diverging);
        assert_eq!(majority_verdict(0, 0), Verdict::Stable);
    }

    #[test]
    fn escalate_and_continuation_parse_and_validate() {
        let base = r#"{"template": {"algorithm": "a", "adversary": "b"}, "#;
        let spec = FrontierSpec::parse(&format!(
            "{base}\"seeds\": [1, 2, 3], \"escalate\": {{\"max_seeds\": 9, \"step\": 2}}, \
             \"continuation\": \"n\"}}"
        ))
        .unwrap();
        assert_eq!(spec.escalate, Some(EscalateSpec { max_seeds: 9, step: 2 }));
        assert_eq!(spec.continuation, Some(Continuation::N));
        // step defaults to 1
        let spec = FrontierSpec::parse(&format!(
            "{base}\"seeds\": [1, 2], \"escalate\": {{\"max_seeds\": 4}}}}"
        ))
        .unwrap();
        assert_eq!(spec.escalate, Some(EscalateSpec { max_seeds: 4, step: 1 }));
        // escalation demands an ensemble, a sane cap, and a positive step
        let err = FrontierSpec::parse(&format!("{base}\"escalate\": {{\"max_seeds\": 4}}}}"))
            .unwrap_err();
        assert!(err.contains("at least two seeds"), "{err}");
        let err = FrontierSpec::parse(&format!(
            "{base}\"seeds\": [1, 2, 3], \"escalate\": {{\"max_seeds\": 2}}}}"
        ))
        .unwrap_err();
        assert!(err.contains("below the base ensemble"), "{err}");
        let err = FrontierSpec::parse(&format!(
            "{base}\"seeds\": [1, 2], \"escalate\": {{\"max_seeds\": 4, \"step\": 0}}}}"
        ))
        .unwrap_err();
        assert!(err.contains("step must be positive"), "{err}");
        let err = FrontierSpec::parse(&format!("{base}\"continuation\": \"k\"}}")).unwrap_err();
        assert!(err.contains("must be \"n\""), "{err}");
        // ... and the new keys are digest-bound while legacy specs digest
        // exactly as they did before the keys existed
        let legacy = r#"{"template": {"algorithm": "a", "adversary": "b"}}"#;
        let with = format!("{base}\"seeds\": [1, 2], \"escalate\": {{\"max_seeds\": 4}}}}");
        assert_ne!(
            FrontierSpec::parse(legacy).unwrap().digest("csv"),
            FrontierSpec::parse(&with).unwrap().digest("csv")
        );
        let rendered = FrontierSpec::parse(legacy).unwrap().to_json().render();
        assert!(!rendered.contains("escalate") && !rendered.contains("continuation"), "{rendered}");
    }

    #[test]
    fn integer_axis_search_brackets_a_known_cap_boundary() {
        // Oracle on the k axis: stable iff k >= 6 (inverted orientation —
        // small caps diverge). Bracket [2, 16], tol below 1 clamps to 1.
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 20, "k": 3,
                "rounds": 100},
                "axis": "k", "lo": "2", "hi": "16", "tol": 0.5}"#,
        )
        .unwrap();
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 20, k: 3 }).unwrap();
        let mut guard = 0;
        while let Some(rate) = s.pending {
            assert_eq!(rate.den(), 1, "integer axis probes integers");
            let k = rate.num();
            let spec_k = s.probe_spec().unwrap().k;
            assert_eq!(spec_k, k as usize, "k axis probes the cap itself");
            let verdict = if k >= 6 { Verdict::Stable } else { Verdict::Diverging };
            s.apply(verdict, spec.tol).unwrap();
            guard += 1;
            assert!(guard < 16, "integer search must terminate");
        }
        let row = s.row(0);
        assert_eq!(row.status, Status::Converged);
        // the bracket straddles the flip: lo = last diverging k, hi =
        // first stable k
        assert_eq!((row.lo, row.hi), (Rate::integer(5), Rate::integer(6)));

        // degenerate orientations report honestly under the inversion:
        // stable everywhere (even at the smallest cap) is all-stable...
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 20, k: 3 }).unwrap();
        s.apply(Verdict::Stable, spec.tol).unwrap();
        assert_eq!(s.row(0).status, Status::AllStable);
        // ... and diverging even at the largest cap is all-diverging
        let mut s = PointSearch::new(&spec, 0, MapPoint { n: 20, k: 3 }).unwrap();
        s.apply(Verdict::Diverging, spec.tol).unwrap();
        s.apply(Verdict::Diverging, spec.tol).unwrap();
        assert_eq!(s.row(0).status, Status::AllDiverging);
    }

    #[test]
    fn ell_axis_probes_realise_the_nearest_cap() {
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "n": 9, "k": 3,
                "rounds": 100},
                "axis": "ell", "lo": "2", "hi": "8", "tol": 1}"#,
        )
        .unwrap();
        let s = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        // first probe is ell = 2 -> k = ceil(9/2) + 1 = 6
        assert_eq!(s.pending, Some(Rate::integer(2)));
        assert_eq!(s.probe_spec().unwrap().k, 6);
        // ell diverges high like rho: a diverging lo finishes all-diverging
        let mut s = s;
        s.apply(Verdict::Diverging, spec.tol).unwrap();
        assert_eq!(s.row(0).status, Status::AllDiverging);
    }

    #[test]
    fn continuation_points_wait_then_warm_start_from_their_predecessor() {
        let spec = FrontierSpec::parse(
            r#"{"template": {"algorithm": "a", "adversary": "b", "rounds": 100},
                "lo": "0", "hi": "1", "tol": 0.01, "continuation": "n",
                "map": {"n": [9, 10], "k": [3]}}"#,
        )
        .unwrap();
        let first = PointSearch::new(&spec, 0, MapPoint { n: 9, k: 3 }).unwrap();
        assert_eq!(first.phase, Phase::ProbeLo, "the first n searches its full bracket");
        let mut second = PointSearch::new(&spec, 1, MapPoint { n: 10, k: 3 }).unwrap();
        assert_eq!(second.phase, Phase::Waiting);
        assert_eq!(second.waiting_on, Some(0));
        assert_eq!(second.pending, None, "waiting points have no runnable probe");
        assert!(second.apply(Verdict::Stable, spec.tol).is_err(), "probing while waiting is a bug");

        // predecessor converged on [3/16, 7/32] (width 1/32): the warm
        // bracket widens it by 1/32 on each side
        second.activate(Status::Converged, Rate::new(3, 16), Rate::new(7, 32));
        assert_eq!(second.phase, Phase::ProbeLo);
        assert_eq!((second.lo, second.hi), (Rate::new(5, 32), Rate::new(1, 4)));
        assert_eq!(second.pending, Some(Rate::new(5, 32)));

        // boundary drifted below the warm bracket: the warm lo diverges,
        // becomes the new hi, and the search falls back to the full lo
        let mut s = PointSearch::new(&spec, 1, MapPoint { n: 10, k: 3 }).unwrap();
        s.activate(Status::Converged, Rate::new(3, 16), Rate::new(7, 32));
        let oracle = Rate::new(1, 10); // below warm lo 5/32
        let mut guard = 0;
        while let Some(rate) = s.pending {
            let verdict = if oracle.lt(&rate) { Verdict::Diverging } else { Verdict::Stable };
            s.apply(verdict, spec.tol).unwrap();
            guard += 1;
            assert!(guard < 32);
        }
        let row = s.row(1);
        assert_eq!(row.status, Status::Converged, "escape must re-bracket, not misreport");
        assert!(!oracle.lt(&row.lo), "lo {} <= boundary", row.lo);
        assert!(!row.hi.lt(&oracle), "hi {} >= boundary", row.hi);
        assert!(width(row.lo, row.hi) <= spec.tol);

        // boundary drifted above the warm bracket: warm hi is stable,
        // becomes the new lo, full hi re-probed
        let mut s = PointSearch::new(&spec, 1, MapPoint { n: 10, k: 3 }).unwrap();
        s.activate(Status::Converged, Rate::new(3, 16), Rate::new(7, 32));
        let oracle = Rate::new(3, 4); // above warm hi 1/4
        let mut guard = 0;
        while let Some(rate) = s.pending {
            let verdict = if oracle.lt(&rate) { Verdict::Diverging } else { Verdict::Stable };
            s.apply(verdict, spec.tol).unwrap();
            guard += 1;
            assert!(guard < 32);
        }
        let row = s.row(1);
        assert_eq!(row.status, Status::Converged);
        assert!(!oracle.lt(&row.lo), "lo {} <= boundary", row.lo);
        assert!(!row.hi.lt(&oracle), "hi {} >= boundary", row.hi);
        assert!(width(row.lo, row.hi) <= spec.tol);

        // a non-converged predecessor contributes no boundary: full bracket
        let mut s = PointSearch::new(&spec, 1, MapPoint { n: 10, k: 3 }).unwrap();
        s.activate(Status::AllStable, Rate::new(3, 16), Rate::new(7, 32));
        assert_eq!((s.lo, s.hi), (Rate::zero(), Rate::one()));
    }

    #[test]
    fn ensemble_tally_bands_and_agreement() {
        // unanimous probes: degenerate band, agreement exactly 1
        let mut t = EnsembleTally::default();
        t.record(Rate::new(1, 4), 0, 5);
        t.record(Rate::new(1, 2), 5, 5);
        let band = t.band(0.375);
        assert_eq!((band.lo, band.hi), (0.375, 0.375));
        assert_eq!(band.agreement, 1.0);
        assert_eq!(band.max_lanes, 5);

        // a mixed probe opens the band and dents agreement
        let mut t = EnsembleTally::default();
        t.record(Rate::new(1, 4), 0, 5); // unanimous stable
        t.record(Rate::new(3, 8), 2, 5); // mixed, majority stable
        t.record(Rate::new(1, 2), 5, 5); // unanimous diverging
        let band = t.band(0.4);
        assert_eq!((band.lo, band.hi), (0.375, 0.4), "mixed span clamped to include boundary");
        assert!(band.agreement < 1.0);
        assert_eq!(band.agreement, 13.0 / 15.0);

        // the band always contains the boundary, even when every mixed
        // probe sits on one side of it
        let band = t.band(0.3);
        assert_eq!((band.lo, band.hi), (0.3, 0.375));

        // escalation widens max_lanes and the agreement denominator
        let mut t = EnsembleTally::default();
        t.record(Rate::new(3, 8), 4, 9); // escalated final batch
        assert_eq!(t.band(0.375).max_lanes, 9);
        assert_eq!(t.band(0.375).agreement, 5.0 / 9.0);
    }
}
