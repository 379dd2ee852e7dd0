//! Fleet-sharded campaigns and frontier maps with byte-identical merge.
//!
//! A *plan* splits one campaign or frontier spec into disjoint slices of
//! work units, bound to the same digest an uninterrupted single-process
//! run would pin in its checkpoint. Each shard worker runs its slice as an
//! ordinary checkpointed run — same sinks, same checkpoints, same
//! torn-tail repair — and *steals* unclaimed units from other slices
//! through the [`claims::ClaimTable`] once its own are done, so uneven
//! probe costs don't stall static partitions. *Merge* stitches the shard
//! outputs back together by pairing each shard's j-th output row with the
//! j-th index its checkpoint recorded, then re-emitting all rows in
//! global order: the result is byte-identical to the single-process run,
//! whatever the shard count, steal schedule, or merge order. Digest
//! mismatches, overlapping claims, unfinished shards, and torn state that
//! cannot be repaired are refused with named errors rather than merged.
//!
//! Work units are single scenarios (campaigns) or single map points
//! (frontier maps) — except continuation maps, where each warm-start
//! chain is one unit, because a chained point's bracket is a function of
//! its predecessor's final state and must stay on the same shard.
//!
//! A plan's [`Format`] and [`Kind`] name each shard's files exactly as
//! they name a single-process run's (see [`crate::output`]), and its
//! digest is that run's checkpoint digest. Shard outputs have no header
//! lines; merge writes them once.
//!
//! ```text
//! plan-dir/
//!   plan.json            spec text + digest + slices (created once)
//!   claims.log           fsync'd append-only claim audit
//!   leases/unit-N.lease  O_EXCL claim locks
//!   shard-S/             one ordinary checkpointed run per shard
//!     campaign.ckpt | frontier.ckpt
//!     campaign.csv | campaign.jsonl | frontier.csv | frontier.jsonl
//! ```

pub mod claims;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::campaign::json::Json;
use crate::campaign::{
    campaign_digest, checkpoint, parse_campaign_spec, Campaign, Checkpoint, MetricsDetail,
    ScenarioFactory, TallySink,
};
use crate::digest::Fnv64;
use crate::frontier::{
    self, Frontier, FrontierCheckpoint, FrontierSpec, FRONTIER_BAND_CSV_HEADER, FRONTIER_CSV_HEADER,
};
use crate::journal::reopen_output;
use crate::obs::{EventLog, ObsEvent, ObsReport, ObservedSink, Observer, Progress, RunKind};
use crate::output::{Format, Kind};
pub use claims::ClaimTable;

const PLAN_MAGIC: &str = "emac-shard-plan v1";

/// One shard's static slice of the unit list (half-open `[lo, hi)`).
/// Slices only seed the claim order — a shard steals beyond its slice once
/// those units are done, and merge trusts the claim table, not the slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSlice {
    /// Shard id (`--shard` argument; also the `shard-<id>` directory).
    pub id: usize,
    /// First unit of the slice.
    pub lo: usize,
    /// One past the last unit of the slice.
    pub hi: usize,
}

/// A parsed, validated shard plan — see the module docs for the directory
/// layout.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Campaign or frontier.
    pub kind: Kind,
    /// Output encoding (all shards and the merge share it).
    pub format: Format,
    /// Metric detail for campaign scenarios (ignored for frontier plans).
    pub detail: MetricsDetail,
    /// The digest an uninterrupted single-process run of this spec with
    /// this format (and detail) would pin in its checkpoint; every shard
    /// checkpoint and the claim log derive from it.
    pub digest: u64,
    /// The work units: each entry lists the global indices it covers, in
    /// ascending order. Derived from the spec, not stored in `plan.json`.
    pub units: Vec<Vec<usize>>,
    /// The per-shard slices.
    pub slices: Vec<ShardSlice>,
    /// The spec document, verbatim, as given to `plan`.
    pub spec_text: String,
}

impl ShardPlan {
    /// Split `spec_text` (a campaign or frontier spec document — the kind
    /// is detected by the presence of a `"template"` key) into `shards`
    /// contiguous slices of its work-unit list.
    pub fn build(
        spec_text: &str,
        format: Format,
        detail: MetricsDetail,
        shards: usize,
    ) -> Result<Self, String> {
        if shards == 0 {
            return Err("shard count must be positive".into());
        }
        let (kind, digest, units) = inspect_spec(spec_text, format, detail)?;
        let n = units.len();
        let slices = (0..shards)
            .map(|s| ShardSlice { id: s, lo: s * n / shards, hi: (s + 1) * n / shards })
            .collect();
        let plan =
            Self { kind, format, detail, digest, units, slices, spec_text: spec_text.into() };
        plan.validate_slices()?;
        Ok(plan)
    }

    /// Initialise `dir` from this plan: write `plan.json` and create the
    /// claim table. Refuses a directory that already holds a plan.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("plan dir {}: {e}", dir.display()))?;
        let path = dir.join("plan.json");
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| format!("plan {}: {e}", path.display()))?;
        file.write_all(self.to_json().render_pretty().as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("plan {}: {e}", path.display()))?;
        ClaimTable::create(dir, self.digest, self.units.len())?;
        Ok(())
    }

    /// Load and validate the plan in `dir`: the units and digest are
    /// recomputed from the embedded spec and must match the recorded
    /// digest, and the slices must be disjoint, in-range, and uniquely
    /// numbered — a hand-edited plan fails here, not at merge.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join("plan.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("plan {}: {e}", path.display()))?;
        let bad = |e: String| format!("plan {}: {e}", path.display());
        let v = Json::parse(&text).map_err(bad)?;
        if v.get("magic").and_then(Json::as_str) != Some(PLAN_MAGIC) {
            return Err(bad("not a shard plan (bad magic)".into()));
        }
        let format = Format::parse(
            v.get("format").and_then(Json::as_str).ok_or_else(|| bad("missing format".into()))?,
        )
        .map_err(bad)?;
        let detail = v
            .get("detail")
            .and_then(Json::as_str)
            .map_or(Ok(MetricsDetail::Full), MetricsDetail::parse)
            .map_err(bad)?;
        let recorded = v
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("malformed digest".into()))?;
        let spec_text = v
            .get("spec")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing spec".into()))?
            .to_string();
        let (kind, digest, units) = inspect_spec(&spec_text, format, detail).map_err(bad)?;
        if digest != recorded {
            return Err(bad(format!(
                "spec digest mismatch (plan records {recorded:016x}, embedded spec digests to \
                 {digest:016x}); the plan file was edited"
            )));
        }
        let recorded_kind = v.get("kind").and_then(Json::as_str);
        if recorded_kind != Some(kind.name()) {
            return Err(bad(format!("kind mismatch (plan records {recorded_kind:?})")));
        }
        if v.get("units").and_then(Json::as_usize) != Some(units.len()) {
            return Err(bad(format!("unit count mismatch (spec yields {} units)", units.len())));
        }
        let mut slices = Vec::new();
        for s in
            v.get("slices").and_then(Json::as_array).ok_or_else(|| bad("missing slices".into()))?
        {
            let field = |k: &str| {
                s.get(k).and_then(Json::as_usize).ok_or_else(|| bad(format!("slice missing {k:?}")))
            };
            slices.push(ShardSlice { id: field("id")?, lo: field("lo")?, hi: field("hi")? });
        }
        let plan = Self { kind, format, detail, digest, units, slices, spec_text };
        plan.validate_slices().map_err(bad)?;
        Ok(plan)
    }

    /// The digest a single-process run of `spec_text` with these output
    /// options would pin — what `emac shard run` compares its spec
    /// argument against before touching anything.
    pub fn digest_for(
        spec_text: &str,
        format: Format,
        detail: MetricsDetail,
    ) -> Result<u64, String> {
        inspect_spec(spec_text, format, detail).map(|(_, digest, _)| digest)
    }

    /// Total indices (scenarios or map points) across all units.
    pub fn total_indices(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }

    /// The output file name inside each `shard-<id>/` directory — the
    /// same name the single-process CLI uses.
    pub fn out_name(&self) -> &'static str {
        self.format.file_name(self.kind)
    }

    /// The checkpoint file name inside each `shard-<id>/` directory.
    pub fn ckpt_name(&self) -> &'static str {
        self.kind.checkpoint_name()
    }

    /// The digest a given shard's own checkpoint pins: the plan digest
    /// salted with the shard id, so shard checkpoints can't be confused
    /// with each other or with a single-process checkpoint.
    pub fn shard_digest(&self, shard: usize) -> u64 {
        let mut h = Fnv64::new();
        h.u64(self.digest);
        h.str("shard");
        h.usize(shard);
        h.finish()
    }

    /// Read shard `shard`'s checkpoint in `dir` without writing to it: its
    /// probe count and its row indices in append order, or `None` if it is
    /// missing or torn inside its header.
    fn read_shard(&self, dir: &Path, shard: usize) -> Result<Option<(usize, Vec<usize>)>, String> {
        let path = dir.join(format!("shard-{shard}")).join(self.ckpt_name());
        let (digest, total) = (self.shard_digest(shard), self.total_indices());
        Ok(match self.kind {
            Kind::Campaign => checkpoint::read_done(&path, digest, total)?.map(|r| (0, r)),
            Kind::Frontier => frontier::checkpoint::read_sharded(&path, digest, total)?
                .map(|(probes, rows)| (probes.len(), rows)),
        })
    }

    /// The slice for shard `id`, or a named error.
    pub fn slice(&self, id: usize) -> Result<ShardSlice, String> {
        self.slices
            .iter()
            .copied()
            .find(|s| s.id == id)
            .ok_or_else(|| format!("shard {id} is not in the plan ({} shards)", self.slices.len()))
    }

    fn validate_slices(&self) -> Result<(), String> {
        let n = self.units.len();
        for (i, a) in self.slices.iter().enumerate() {
            if a.lo > a.hi || a.hi > n {
                return Err(format!(
                    "shard {} slice [{}, {}) is out of range for {n} units",
                    a.id, a.lo, a.hi
                ));
            }
            for b in &self.slices[..i] {
                if b.id == a.id {
                    return Err(format!("duplicate shard id {}", a.id));
                }
                if a.lo < b.hi && b.lo < a.hi {
                    return Err(format!("shard {} and shard {} slices overlap", b.id, a.id));
                }
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("magic".into(), Json::Str(PLAN_MAGIC.into())),
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("format".into(), Json::Str(self.format.name().into())),
            ("detail".into(), Json::Str(self.detail.name().into())),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("units".into(), Json::Int(self.units.len() as i64)),
            (
                "slices".into(),
                Json::Arr(
                    self.slices
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("id".into(), Json::Int(s.id as i64)),
                                ("lo".into(), Json::Int(s.lo as i64)),
                                ("hi".into(), Json::Int(s.hi as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spec".into(), Json::Str(self.spec_text.clone())),
        ])
    }
}

/// Parse a spec document, compute its single-process digest under the
/// given output options, and list its work units.
fn inspect_spec(
    spec_text: &str,
    format: Format,
    detail: MetricsDetail,
) -> Result<(Kind, u64, Vec<Vec<usize>>), String> {
    let v = Json::parse(spec_text)?;
    if v.get("template").is_some() {
        let spec = FrontierSpec::from_json(&v)?;
        let digest = spec.digest(format.file_name(Kind::Frontier));
        let points = spec.points().len();
        let units = if spec.continuation.is_some() {
            // A continuation chain (fixed k, ascending n) is one unit: a
            // chained point's bracket warm-starts from its predecessor's
            // final state, so the chain cannot split across shards.
            let k = spec.ks.len();
            (0..k).map(|c| (c..points).step_by(k).collect()).collect()
        } else {
            (0..points).map(|i| vec![i]).collect()
        };
        Ok((Kind::Frontier, digest, units))
    } else {
        let specs = parse_campaign_spec(spec_text)?;
        let units = (0..specs.len()).map(|i| vec![i]).collect();
        Ok((Kind::Campaign, campaign_digest(&specs, format, detail), units))
    }
}

/// What one `ShardRunner::run` call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRunSummary {
    /// Work units this call claimed or re-ran.
    pub units_run: usize,
    /// Output rows (scenarios or map points) this call completed.
    pub rows: usize,
    /// Scenarios/probes that violated a model invariant.
    pub unclean: usize,
    /// Campaign scenarios that failed to run at all (recorded as error
    /// rows, like the single-process CLI).
    pub failed: usize,
    /// Whether every unit in the plan now holds a lease — i.e. no
    /// stealable work remains for anyone.
    pub exhausted: bool,
}

/// One shard worker: claims units (own slice first, then steals), runs
/// them through the ordinary checkpointed engines, and leaves resumable
/// state behind at any kill point.
#[derive(Debug)]
pub struct ShardRunner {
    plan: ShardPlan,
    dir: PathBuf,
    shard: usize,
    threads: usize,
    progress: bool,
}

impl ShardRunner {
    /// A runner for shard `shard` of the plan in `dir`.
    pub fn new(dir: &Path, plan: ShardPlan, shard: usize) -> Result<Self, String> {
        plan.slice(shard)?;
        Ok(Self { plan, dir: dir.to_path_buf(), shard, threads: 1, progress: false })
    }

    /// Worker threads for the underlying engine (output bytes don't
    /// depend on this).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Show a live stderr progress line while running (off by default;
    /// telemetry only, output bytes don't depend on it).
    pub fn progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Run until no claimable work remains. `resume` replays this shard's
    /// checkpoint (mid-unit kill points included) instead of starting
    /// fresh.
    pub fn run<F>(&self, factory: &F, resume: bool) -> Result<ShardRunSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        self.run_with_limit(factory, resume, usize::MAX)
    }

    /// Like [`run`](Self::run) but claiming at most `max_units` *new*
    /// units (units this shard already leases are always finished first) —
    /// the step-granular entry the interleaving property tests drive.
    pub fn run_with_limit<F>(
        &self,
        factory: &F,
        resume: bool,
        max_units: usize,
    ) -> Result<ShardRunSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        let shard_dir = self.shard_dir();
        std::fs::create_dir_all(&shard_dir)
            .map_err(|e| format!("shard dir {}: {e}", shard_dir.display()))?;
        // Every shard run keeps a durable event log next to its checkpoint
        // — `emac shard status` and `emac obs report` read it, and merge
        // ignores it (merge reads only the specific output/checkpoint file
        // names). A resume appends, repairing a torn tail first.
        let events_path = shard_dir.join("events.jsonl");
        let log =
            if resume { EventLog::append(&events_path) } else { EventLog::create(&events_path) }
                .map_err(|e| format!("event log {}: {e}", events_path.display()))?;
        let mut observer = Observer::new().with_log(log);
        if self.progress {
            let total = self.plan.total_indices() as u64;
            observer = observer.with_progress(Progress::new(RunKind::Shard, total));
        }
        observer.record(&ObsEvent::RunStarted {
            kind: RunKind::Shard,
            total: self.plan.total_indices() as u64,
        });
        let started = Instant::now();
        let obs = Mutex::new(observer);
        let claims = ClaimTable::open(&self.dir, self.plan.digest, self.plan.units.len())?;
        let summary = match self.plan.kind {
            Kind::Campaign => self.run_campaign(factory, resume, max_units, &claims, &obs),
            Kind::Frontier => self.run_frontier(factory, resume, max_units, &claims, &obs),
        }?;
        let mut observer = obs.into_inner().expect("observer poisoned");
        let rounds = observer.rounds_seen();
        observer.finish(&ObsEvent::RunFinished {
            kind: RunKind::Shard,
            done: summary.rows as u64,
            wall_ms: started.elapsed().as_millis() as u64,
            rounds,
        })?;
        Ok(summary)
    }

    /// Claim order: leased-but-unfinished units of ours first (crash
    /// recovery), then our own slice ascending, then steals ascending.
    fn unit_order(&self) -> Vec<usize> {
        let slice = self.plan.slice(self.shard).expect("validated in new()");
        let mut order: Vec<usize> = (slice.lo..slice.hi).collect();
        order.extend((0..self.plan.units.len()).filter(|&u| u < slice.lo || u >= slice.hi));
        order
    }

    fn shard_dir(&self) -> PathBuf {
        self.dir.join(format!("shard-{}", self.shard))
    }

    fn run_campaign<F>(
        &self,
        factory: &F,
        resume: bool,
        max_units: usize,
        claims: &ClaimTable,
        obs: &Mutex<Observer>,
    ) -> Result<ShardRunSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        let specs = parse_campaign_spec(&self.plan.spec_text)?;
        let ckpt_path = self.shard_dir().join(self.plan.ckpt_name());
        let digest = self.plan.shard_digest(self.shard);
        let mut ck = if resume {
            Checkpoint::resume(&ckpt_path, digest, specs.len())
        } else {
            Checkpoint::fresh(&ckpt_path, digest, specs.len())
        }?;
        let out_path = self.shard_dir().join(self.plan.out_name());
        // Shard outputs are headerless: merge writes the one header.
        let (writer, _) = reopen_output(&out_path, ck.completed(), 0)?;
        let mut sink =
            TallySink::new(ObservedSink::new(self.plan.format.campaign_sink(writer, false), obs));
        let executor = Campaign::new().threads(self.threads).detail(self.plan.detail);
        let mut summary = ShardRunSummary::default();
        self.drive_units(claims, max_units, &mut summary, obs, |unit| {
            let todo: Vec<usize> = unit.iter().copied().filter(|&i| !ck.is_done(i)).collect();
            executor.run_subset(&specs, &todo, factory, &mut sink, Some(&mut ck))?;
            Ok(todo.len())
        })?;
        summary.unclean = sink.unclean();
        summary.failed = sink.failed();
        Ok(summary)
    }

    fn run_frontier<F>(
        &self,
        factory: &F,
        resume: bool,
        max_units: usize,
        claims: &ClaimTable,
        obs: &Mutex<Observer>,
    ) -> Result<ShardRunSummary, String>
    where
        F: ScenarioFactory + Sync,
    {
        let spec = FrontierSpec::parse(&self.plan.spec_text)?;
        let points = spec.points().len();
        let ckpt_path = self.shard_dir().join(self.plan.ckpt_name());
        let digest = self.plan.shard_digest(self.shard);
        let mut ck = if resume {
            FrontierCheckpoint::resume_sharded(&ckpt_path, digest, points)
        } else {
            FrontierCheckpoint::fresh_sharded(&ckpt_path, digest, points)
        }?;
        let out_path = self.shard_dir().join(self.plan.out_name());
        let (writer, _) = reopen_output(&out_path, ck.rows_written(), 0)?;
        let mut sink = self.plan.format.map_sink(writer, false);
        let engine = Frontier::new().threads(self.threads);
        let mut summary = ShardRunSummary::default();
        let mut unclean = 0usize;
        let emitted: std::collections::BTreeSet<usize> = ck.row_indices().iter().copied().collect();
        self.drive_units(claims, max_units, &mut summary, obs, |unit| {
            if unit.iter().all(|i| emitted.contains(i)) {
                return Ok(0);
            }
            let mut observer = obs.lock().expect("observer poisoned");
            let sub = engine.run_subset_into_observed(
                &spec,
                unit,
                factory,
                sink.as_mut(),
                Some(&mut ck),
                &mut observer,
            )?;
            unclean += sub.unclean_probes;
            Ok(sub.completed)
        })?;
        summary.unclean = unclean;
        Ok(summary)
    }

    /// The shared claim-walk: finish leased-unfinished units, then claim
    /// new ones (slice first, steals after) up to `max_units`.
    fn drive_units(
        &self,
        claims: &ClaimTable,
        max_units: usize,
        summary: &mut ShardRunSummary,
        obs: &Mutex<Observer>,
        mut run_unit: impl FnMut(&[usize]) -> Result<usize, String>,
    ) -> Result<(), String> {
        let slice = self.plan.slice(self.shard).expect("validated in new()");
        let mut claimed_new = 0usize;
        for u in self.unit_order() {
            let owned = claims.lease_owner(u)? == Some(self.shard);
            if owned {
                // Ours from a previous run: restore a log line a crash may
                // have lost, then finish whatever the checkpoint says is
                // left (possibly nothing).
                if claims.ensure_logged(u, self.shard)? {
                    obs.lock().expect("observer poisoned").record(&ObsEvent::LeaseRepair {
                        shard: self.shard as u64,
                        unit: u as u64,
                    });
                }
            } else {
                if claimed_new >= max_units {
                    continue;
                }
                if !claims.try_claim(u, self.shard)? {
                    continue; // someone else's
                }
                claimed_new += 1;
                obs.lock().expect("observer poisoned").record(&ObsEvent::Claim {
                    shard: self.shard as u64,
                    unit: u as u64,
                    stolen: u < slice.lo || u >= slice.hi,
                });
            }
            let rows = run_unit(&self.plan.units[u])?;
            if rows > 0 {
                summary.units_run += 1;
                summary.rows += rows;
            }
        }
        summary.exhausted = (0..self.plan.units.len())
            .try_fold(true, |all, u| Ok::<_, String>(all && claims.lease_owner(u)?.is_some()))?;
        Ok(())
    }
}

/// What a merge produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeSummary {
    /// Rows written to the merged output.
    pub rows: usize,
    /// Shards whose outputs contributed rows.
    pub shards_merged: usize,
    /// Probe lines across all frontier shard checkpoints (0 for
    /// campaigns) — the conservation figure the crash tests compare
    /// against a single-process run.
    pub probes: usize,
}

/// Stitch the shard outputs in `dir` into `out`: byte-identical to an
/// uninterrupted single-process run of the planned spec. Refuses — with
/// named errors — digest mismatches, units claimed by two shards, units
/// never claimed, shards whose claimed work is unfinished (a dead shard
/// must be resumed first), missing shard directories or outputs, and
/// shard state torn beyond the standard tail repair. A shard checkpoint
/// missing or torn inside its header records nothing, so a shard that
/// claimed units is then reported unfinished.
pub fn merge(dir: &Path, out: &Path) -> Result<MergeSummary, String> {
    let plan = ShardPlan::load(dir)?;
    let claims = ClaimTable::open(dir, plan.digest, plan.units.len())?;
    let logged = claims.claims()?;

    // Who owns each unit? The log is the record; leases fill the
    // crash-between-lease-and-log window. Two different claimants is an
    // overlap — refuse rather than guess.
    let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
    for (u, s) in logged {
        if let Some(&prev) = owner.get(&u) {
            if prev != s {
                return Err(format!(
                    "overlapping claims: unit {u} claimed by shard {prev} and shard {s}; \
                     refusing to merge"
                ));
            }
        }
        owner.insert(u, s);
    }
    for u in 0..plan.units.len() {
        if let Some(lease) = claims.lease_owner(u)? {
            if let Some(&prev) = owner.get(&u) {
                if prev != lease {
                    return Err(format!(
                        "overlapping claims: unit {u} logged to shard {prev} but leased to \
                         shard {lease}; refusing to merge"
                    ));
                }
            }
            owner.insert(u, lease);
        }
        if !owner.contains_key(&u) {
            return Err(format!(
                "unit {u} was never claimed; run `emac shard run` until the plan is \
                 exhausted before merging"
            ));
        }
    }

    // Collect each contributing shard's (ordered row indices, output
    // lines) and pair them positionally.
    let mut rows: BTreeMap<usize, String> = BTreeMap::new();
    let mut shards: Vec<usize> = owner.values().copied().collect();
    shards.sort_unstable();
    shards.dedup();
    let mut probes = 0usize;
    for &s in &shards {
        let shard_dir = dir.join(format!("shard-{s}"));
        if !shard_dir.is_dir() {
            return Err(format!(
                "shard {s} directory {} is missing; refusing to merge",
                shard_dir.display()
            ));
        }
        // A checkpoint missing or torn inside its header records nothing,
        // so a shard that owns units is then reported unfinished below.
        let (shard_probes, recorded) = plan.read_shard(dir, s)?.unwrap_or_default();
        probes += shard_probes;
        // Completeness: every index of every unit this shard claimed must
        // be recorded, or the shard died mid-work and must be resumed.
        let done: std::collections::BTreeSet<usize> = recorded.iter().copied().collect();
        for (&u, _) in owner.iter().filter(|&(_, &o)| o == s) {
            if let Some(&missing) = plan.units[u].iter().find(|i| !done.contains(i)) {
                return Err(format!(
                    "shard {s} is unfinished (unit {u}, index {missing} not recorded); \
                     resume it with `emac shard run … --shard {s} --resume` before merging"
                ));
            }
        }
        let out_path = shard_dir.join(plan.out_name());
        let text = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("shard {s} output {}: {e}", out_path.display()))?;
        let mut lines = text.split('\n');
        // (split always yields a final "" for newline-terminated text; a
        // torn tail shows up as a non-empty fragment and is dropped — its
        // row was never recorded, or the count check below refuses.)
        for (j, &index) in recorded.iter().enumerate() {
            let line = match lines.next() {
                Some(l) if !l.is_empty() || j + 1 < recorded.len() => l,
                _ => {
                    return Err(format!(
                        "shard {s} output {} holds fewer rows than its checkpoint records \
                         ({}); refusing to merge",
                        out_path.display(),
                        recorded.len()
                    ))
                }
            };
            if rows.insert(index, line.to_string()).is_some() {
                return Err(format!(
                    "overlapping claims: index {index} produced by more than one shard; \
                     refusing to merge"
                ));
            }
        }
    }

    let total = plan.total_indices();
    for i in 0..total {
        if !rows.contains_key(&i) {
            return Err(format!("index {i} missing from every shard; refusing to merge"));
        }
    }

    // Single-process byte layout: its header line (CSV only), rows in
    // global order, trailing newline per row.
    let mut bytes = String::new();
    if plan.format.header_lines() > 0 {
        match plan.kind {
            Kind::Campaign => {
                bytes.push_str(crate::campaign::CSV_HEADER);
            }
            Kind::Frontier => {
                let spec = FrontierSpec::parse(&plan.spec_text)?;
                bytes.push_str(if spec.seeds.len() > 1 {
                    FRONTIER_BAND_CSV_HEADER
                } else {
                    FRONTIER_CSV_HEADER
                });
            }
        }
        bytes.push('\n');
    }
    for line in rows.values() {
        bytes.push_str(line);
        bytes.push('\n');
    }
    let mut file =
        std::fs::File::create(out).map_err(|e| format!("merged output {}: {e}", out.display()))?;
    file.write_all(bytes.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("merged output {}: {e}", out.display()))?;
    Ok(MergeSummary { rows: total, shards_merged: shards.len(), probes })
}

/// A human-readable progress report for the plan in `dir`.
pub fn status(dir: &Path) -> Result<String, String> {
    let plan = ShardPlan::load(dir)?;
    let claims = ClaimTable::open(dir, plan.digest, plan.units.len())?;
    let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
    for (u, s) in claims.claims()? {
        owner.insert(u, s);
    }
    for u in 0..plan.units.len() {
        if let Some(s) = claims.lease_owner(u)? {
            owner.entry(u).or_insert(s);
        }
    }
    let mut report = format!(
        "{} plan: {} units ({} indices), {} shards, digest {:016x}\n",
        plan.kind.name(),
        plan.units.len(),
        plan.total_indices(),
        plan.slices.len(),
        plan.digest
    );
    for slice in &plan.slices {
        let claimed = owner.values().filter(|&&s| s == slice.id).count();
        let recorded = match plan.read_shard(dir, slice.id) {
            Ok(Some((_, rows))) => format!("{} rows recorded", rows.len()),
            Ok(None) => "not started".to_string(),
            Err(e) => format!("checkpoint unreadable ({e})"),
        };
        // Enrich from the shard's event log where one exists. A shard
        // without a (readable) log is still reported — named explicitly,
        // degraded to the claim-table view above — never a status failure:
        // logs are telemetry, and a fleet mixing armed and pre-obs shards
        // must still be inspectable.
        let events_path = dir.join(format!("shard-{}", slice.id)).join("events.jsonl");
        let activity = match std::fs::read_to_string(&events_path) {
            Ok(text) => {
                let mut events = ObsReport::default();
                match events.ingest(&text) {
                    Ok(()) => {
                        let a = events
                            .shards
                            .iter()
                            .find(|(id, _)| *id == slice.id as u64)
                            .map(|&(_, a)| a)
                            .unwrap_or_default();
                        format!(
                            "{} row(s)/{} probe(s) logged, {} steal(s), {} lease repair(s)",
                            events.rows, events.probes, a.steals, a.lease_repairs
                        )
                    }
                    Err(e) => format!("event log unreadable ({e}); claim-table view only"),
                }
            }
            Err(_) => "no event log; claim-table view only".to_string(),
        };
        report.push_str(&format!(
            "  shard {}: slice [{}, {}), {claimed} units claimed, {recorded}, {activity}\n",
            slice.id, slice.lo, slice.hi
        ));
    }
    let unclaimed = (0..plan.units.len()).filter(|u| !owner.contains_key(u)).count();
    report.push_str(&format!("  unclaimed units: {unclaimed}\n"));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAMPAIGN_SPEC: &str = r#"[
        {"algorithm": "count-hop", "adversary": "uniform", "n": 4, "rho": "1/8",
         "rounds": 256},
        {"algorithm": "count-hop", "adversary": "uniform", "n": 5, "rho": "1/8",
         "rounds": 256},
        {"algorithm": "k-cycle", "adversary": "uniform", "n": 5, "k": 2, "rho": "1/8",
         "rounds": 256}
    ]"#;

    const FRONTIER_SPEC: &str = r#"{
        "template": {"algorithm": "k-cycle", "adversary": "uniform", "n": 6, "k": 2,
                     "rounds": 400},
        "axis": "rho", "lo": "0.05", "hi": "0.9", "tol": 0.05,
        "map": {"n": [6, 8], "k": [2, 3]},
        "continuation": "n"
    }"#;

    #[test]
    fn plan_splits_units_and_round_trips_through_disk() {
        let plan = ShardPlan::build(CAMPAIGN_SPEC, Format::Csv, MetricsDetail::Slim, 2).unwrap();
        assert_eq!(plan.kind, Kind::Campaign);
        assert_eq!(plan.units, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(
            plan.slices,
            vec![ShardSlice { id: 0, lo: 0, hi: 1 }, ShardSlice { id: 1, lo: 1, hi: 3 },]
        );
        let dir = std::env::temp_dir().join(format!("emac-shard-plan-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        plan.save(&dir).unwrap();
        let loaded = ShardPlan::load(&dir).unwrap();
        assert_eq!(loaded.digest, plan.digest);
        assert_eq!(loaded.units, plan.units);
        assert_eq!(loaded.slices, plan.slices);
        assert_eq!(loaded.detail, MetricsDetail::Slim);
        // a second save into the same directory is refused
        assert!(plan.save(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn continuation_chains_are_whole_units() {
        let plan = ShardPlan::build(FRONTIER_SPEC, Format::Csv, MetricsDetail::Full, 2).unwrap();
        assert_eq!(plan.kind, Kind::Frontier);
        // 2 ns × 2 ks = 4 points; chains along n with K=2: {0,2} and {1,3}
        assert_eq!(plan.units, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(plan.total_indices(), 4);
        assert_eq!(plan.out_name(), "frontier.csv");
    }

    #[test]
    fn slice_validation_names_each_defect() {
        let base = ShardPlan::build(CAMPAIGN_SPEC, Format::Csv, MetricsDetail::Full, 3).unwrap();
        let check = |slices: Vec<ShardSlice>, needle: &str| {
            let mut plan = base.clone();
            plan.slices = slices;
            let err = plan.validate_slices().unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err}");
        };
        check(
            vec![ShardSlice { id: 0, lo: 0, hi: 2 }, ShardSlice { id: 1, lo: 1, hi: 3 }],
            "slices overlap",
        );
        check(vec![ShardSlice { id: 0, lo: 0, hi: 4 }], "out of range");
        check(vec![ShardSlice { id: 0, lo: 2, hi: 1 }], "out of range");
        check(
            vec![ShardSlice { id: 7, lo: 0, hi: 1 }, ShardSlice { id: 7, lo: 1, hi: 2 }],
            "duplicate shard id 7",
        );
        assert!(ShardPlan::build(CAMPAIGN_SPEC, Format::Csv, MetricsDetail::Full, 0)
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn digest_binds_format_and_detail() {
        let d = |f, det| ShardPlan::digest_for(CAMPAIGN_SPEC, f, det).unwrap();
        let base = d(Format::Csv, MetricsDetail::Full);
        assert_ne!(base, d(Format::JsonLines, MetricsDetail::Full));
        assert_ne!(base, d(Format::Csv, MetricsDetail::Slim));
        let plan = ShardPlan::build(CAMPAIGN_SPEC, Format::Csv, MetricsDetail::Full, 2).unwrap();
        assert_ne!(plan.shard_digest(0), plan.shard_digest(1));
        assert_ne!(plan.shard_digest(0), plan.digest);
    }

    #[test]
    fn loading_an_edited_plan_is_refused() {
        let plan = ShardPlan::build(CAMPAIGN_SPEC, Format::Csv, MetricsDetail::Full, 2).unwrap();
        let dir =
            std::env::temp_dir().join(format!("emac-shard-edited-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        plan.save(&dir).unwrap();
        let path = dir.join("plan.json");
        let text = std::fs::read_to_string(&path).unwrap();
        // swap the embedded spec's n=4 scenario to n=6: digest now lies
        std::fs::write(&path, text.replace("\\\"n\\\": 4", "\\\"n\\\": 6")).unwrap();
        let err = ShardPlan::load(&dir).unwrap_err();
        assert!(err.contains("spec digest mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
