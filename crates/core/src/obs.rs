//! Structured observability: event logs, latency histograms, live progress.
//!
//! Campaigns, frontier maps, and shard fleets are byte-identically
//! deterministic — and, until this module, completely opaque while
//! running. `obs` adds the telemetry seam **strictly outside the digest
//! path**: every pinned golden byte is produced from output rows alone,
//! and nothing here ever feeds a row. The pieces:
//!
//! * [`ObsEvent`] — the event model: run start/finish, per-row and
//!   per-probe timings, escalations, durability-barrier latency, and shard
//!   claims and steals. Events serialize to one compact JSON object per
//!   line through the house [`Json`] value, so an `events.jsonl`
//!   round-trips through the same minimal parser as every spec file.
//! * [`EventLog`] — where events go: a buffered, append-only JSONL writer
//!   that fsyncs on [`EventLog::flush`] and reopens through the
//!   [journal](crate::journal)'s torn-tail cut (headerless: every
//!   complete line stands alone), so a `kill -9` mid-append never
//!   poisons the log.
//! * [`Observer`] — the handle the executors thread through: it owns an
//!   optional [`EventLog`] and an optional [`Progress`] stderr line, and
//!   samples wall-clock time **only at row boundaries**
//!   ([`Observer::boundary_us`]); frontier workers also time each lane
//!   as a whole. The round loop itself bumps plain
//!   [`SimHooks`](emac_sim::SimHooks) counters and stays allocation-free
//!   (pinned by `tests/alloc_free.rs`).
//! * [`ObsReport`] — the offline summary behind `emac obs report`:
//!   event counts, rates, p50/p99 probe and fsync latencies (log2-bucket
//!   histograms in the house `metrics.rs` style, via [`DelayStats`]), and
//!   per-shard utilization.
//!
//! Wall-clock fields are confined to event logs by construction: output
//! rows (CSV/JSONL) never carry a `wall_*` field, and digests are folds of
//! those rows — armed and disarmed runs are byte-identical, which the
//! `obs_determinism` integration tests pin. This module is the seam a
//! future `emacd` campaign service will stream job status through.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use emac_sim::DelayStats;

use crate::campaign::json::Json;
use crate::campaign::{ResultSink, ScenarioRun};

/// What kind of run emitted an event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// A campaign over a scenario list.
    Campaign,
    /// A frontier (stability-boundary) map.
    Frontier,
    /// One shard of a fleet plan.
    Shard,
}

impl RunKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            RunKind::Campaign => "campaign",
            RunKind::Frontier => "frontier",
            RunKind::Shard => "shard",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "campaign" => Ok(RunKind::Campaign),
            "frontier" => Ok(RunKind::Frontier),
            "shard" => Ok(RunKind::Shard),
            other => Err(format!("unknown run kind {other:?}")),
        }
    }
}

/// One observability event. Serialized as a single-line JSON object with
/// an `ev` discriminant; wall-clock durations live in fields named
/// `wall_us`/`wall_ms` and appear **only** here, never in an output row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A run began: `total` rows (campaign) or probes-bearing points
    /// (frontier) or units (shard) are pending.
    RunStarted {
        /// What is running.
        kind: RunKind,
        /// Total work items expected (rows, map points, or plan units).
        total: u64,
    },
    /// A run ended (successfully or not).
    RunFinished {
        /// What ran.
        kind: RunKind,
        /// Work items completed this run.
        done: u64,
        /// Wall-clock duration of the run, in milliseconds.
        wall_ms: u64,
        /// Simulated rounds executed this run (0 when unknown); with
        /// `wall_ms` this yields the run's rounds/sec.
        rounds: u64,
    },
    /// A campaign row was accepted by the sink, in spec order, or a
    /// frontier map row was emitted, in map order.
    Row {
        /// Spec index of the row (map-point index for a frontier row).
        index: u64,
        /// Simulated rounds the scenario executed (0 for failed runs); for
        /// a frontier row, summed over every lane its point ran in this
        /// run.
        rounds: u64,
        /// Whether the run respected every model invariant.
        clean: bool,
        /// Wall-clock time since the previous row boundary, µs.
        wall_us: u64,
    },
    /// A frontier probe verdict was applied; probes land in the order
    /// their lanes finish, each point's in its own bisection order.
    Probe {
        /// Map-point index the probe belongs to.
        point: u64,
        /// The verdict: did the probed execution diverge?
        diverging: bool,
        /// Ensemble lanes that voted (1 for solo probes).
        lanes: u64,
        /// Worker-measured wall time summed over the probe's lanes, µs.
        wall_us: u64,
    },
    /// A probe escalated beyond its base seed ensemble.
    Escalation {
        /// Map-point index that escalated.
        point: u64,
        /// Final lane count after escalation.
        lanes: u64,
    },
    /// A durability barrier completed: a campaign commit block's or a
    /// frontier row's output sync and checkpoint append, or a frontier
    /// probe record's checkpoint append.
    Fsync {
        /// Wall-clock barrier latency, µs.
        wall_us: u64,
    },
    /// A shard claimed a work unit.
    Claim {
        /// Claiming shard.
        shard: u64,
        /// Unit index claimed.
        unit: u64,
        /// Whether the unit lay outside the shard's own slice (a steal).
        stolen: bool,
    },
}

impl ObsEvent {
    /// The event as a JSON object (insertion-ordered, compact-renderable).
    pub fn to_json(&self) -> Json {
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let int = |v: u64| Json::Int(v as i64);
        match self {
            ObsEvent::RunStarted { kind, total } => obj(vec![
                ("ev", Json::Str("run_started".into())),
                ("kind", Json::Str(kind.name().into())),
                ("total", int(*total)),
            ]),
            ObsEvent::RunFinished { kind, done, wall_ms, rounds } => obj(vec![
                ("ev", Json::Str("run_finished".into())),
                ("kind", Json::Str(kind.name().into())),
                ("done", int(*done)),
                ("wall_ms", int(*wall_ms)),
                ("rounds", int(*rounds)),
            ]),
            ObsEvent::Row { index, rounds, clean, wall_us } => obj(vec![
                ("ev", Json::Str("row".into())),
                ("index", int(*index)),
                ("rounds", int(*rounds)),
                ("clean", Json::Bool(*clean)),
                ("wall_us", int(*wall_us)),
            ]),
            ObsEvent::Probe { point, diverging, lanes, wall_us } => obj(vec![
                ("ev", Json::Str("probe".into())),
                ("point", int(*point)),
                ("diverging", Json::Bool(*diverging)),
                ("lanes", int(*lanes)),
                ("wall_us", int(*wall_us)),
            ]),
            ObsEvent::Escalation { point, lanes } => obj(vec![
                ("ev", Json::Str("escalation".into())),
                ("point", int(*point)),
                ("lanes", int(*lanes)),
            ]),
            ObsEvent::Fsync { wall_us } => {
                obj(vec![("ev", Json::Str("fsync".into())), ("wall_us", int(*wall_us))])
            }
            ObsEvent::Claim { shard, unit, stolen } => obj(vec![
                ("ev", Json::Str("claim".into())),
                ("shard", int(*shard)),
                ("unit", int(*unit)),
                ("stolen", Json::Bool(*stolen)),
            ]),
        }
    }

    /// Parse an event back from its JSON object form.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("event missing {k:?}"));
        let num = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("event field {k:?} not u64"));
        let flag =
            |k: &str| field(k)?.as_bool().ok_or_else(|| format!("event field {k:?} not bool"));
        let kind = || RunKind::parse(field("kind")?.as_str().unwrap_or(""));
        match field("ev")?.as_str() {
            Some("run_started") => Ok(ObsEvent::RunStarted { kind: kind()?, total: num("total")? }),
            Some("run_finished") => Ok(ObsEvent::RunFinished {
                kind: kind()?,
                done: num("done")?,
                wall_ms: num("wall_ms")?,
                rounds: num("rounds")?,
            }),
            Some("row") => Ok(ObsEvent::Row {
                index: num("index")?,
                rounds: num("rounds")?,
                clean: flag("clean")?,
                wall_us: num("wall_us")?,
            }),
            Some("probe") => Ok(ObsEvent::Probe {
                point: num("point")?,
                diverging: flag("diverging")?,
                lanes: num("lanes")?,
                wall_us: num("wall_us")?,
            }),
            Some("escalation") => {
                Ok(ObsEvent::Escalation { point: num("point")?, lanes: num("lanes")? })
            }
            Some("fsync") => Ok(ObsEvent::Fsync { wall_us: num("wall_us")? }),
            Some("claim") => Ok(ObsEvent::Claim {
                shard: num("shard")?,
                unit: num("unit")?,
                stolen: flag("stolen")?,
            }),
            Some(other) => Err(format!("unknown event type {other:?}")),
            None => Err("event missing \"ev\" discriminant".into()),
        }
    }

    /// Parse one `events.jsonl` line.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(line)?)
    }
}

/// A buffered, append-only `events.jsonl` writer. Lines are buffered in
/// memory between [`EventLog::flush`] calls (which fsync), so the hot path
/// pays a formatted append, not a syscall. Opening an existing log for
/// append first cuts a torn final line, as the
/// [journal](crate::journal) does for the checkpoint files.
#[derive(Debug)]
pub struct EventLog {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
}

impl EventLog {
    /// Create (truncate) a fresh event log at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self { out: std::io::BufWriter::new(file), path: path.to_path_buf() })
    }

    /// Open an existing log for append, cutting a torn final line first;
    /// a missing file is created.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = crate::journal::append_lines(path)?;
        Ok(Self { out: std::io::BufWriter::new(file), path: path.to_path_buf() })
    }

    /// Record one event. Executors record from one thread only: the
    /// calling thread, which commits.
    pub fn record(&mut self, event: &ObsEvent) {
        // Buffered append; an I/O error surfaces at the next flush.
        let _ = writeln!(self.out, "{}", event.to_json().render());
    }

    /// Make everything recorded so far durable. Called at checkpoint
    /// boundaries, never per round.
    pub fn flush(&mut self) -> Result<(), String> {
        let p = self.path.display();
        self.out.flush().map_err(|e| format!("event log {p}: {e}"))?;
        self.out.get_ref().sync_data().map_err(|e| format!("event log {p}: {e}"))
    }
}

/// A throttled live progress line on stderr: done/total, rate, ETA,
/// escalations, steals. Updated from the event stream, rendered at most
/// every ~100 ms so a fast campaign is not bottlenecked on the terminal.
#[derive(Debug)]
pub struct Progress {
    kind: RunKind,
    total: u64,
    done: u64,
    probes: u64,
    escalations: u64,
    steals: u64,
    started: Instant,
    last_render: Option<Instant>,
}

impl Progress {
    /// A progress line for `total` pending work items.
    pub fn new(kind: RunKind, total: u64) -> Self {
        Self {
            kind,
            total,
            done: 0,
            probes: 0,
            escalations: 0,
            steals: 0,
            started: Instant::now(),
            last_render: None,
        }
    }

    /// Fold one event into the counters and maybe redraw.
    pub fn observe(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::Row { .. } => self.done += 1,
            ObsEvent::Probe { .. } => self.probes += 1,
            ObsEvent::Escalation { .. } => self.escalations += 1,
            ObsEvent::Claim { stolen: true, .. } => self.steals += 1,
            // A frontier finishes map points at row emission; a shard
            // finishes units at claim time — both arrive as their own
            // events elsewhere. Nothing else moves the counters.
            _ => {}
        }
        let due = self.last_render.is_none_or(|t| t.elapsed().as_millis() >= 100);
        if due {
            self.render();
            self.last_render = Some(Instant::now());
        }
    }

    fn render(&self) {
        eprint!("\r{}", self.line());
        let _ = std::io::stderr().flush();
    }

    /// The current progress line (without the carriage return).
    pub fn line(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate_base = if self.probes > 0 { self.probes } else { self.done };
        let rate = rate_base as f64 / elapsed;
        let eta = if self.done > 0 && self.done < self.total {
            let per_item = elapsed / self.done as f64;
            format!("{:.0}s", per_item * (self.total - self.done) as f64)
        } else {
            "-".to_string()
        };
        format!(
            "{}: {}/{} done | {:.1}/s | ETA {} | {} escalation(s) | {} steal(s)",
            self.kind.name(),
            self.done,
            self.total,
            rate,
            eta,
            self.escalations,
            self.steals
        )
    }

    /// Final redraw plus newline, releasing the stderr line.
    pub fn finish(&mut self) {
        self.render();
        eprintln!();
    }
}

/// The observability handle executors thread through: optional event log,
/// optional progress line, and the boundary clock. A default-constructed
/// `Observer` is fully disarmed and costs two `Option` checks per
/// row/probe boundary — the digest path never reads it either way.
#[derive(Debug, Default)]
pub struct Observer {
    log: Option<EventLog>,
    progress: Option<Progress>,
    boundary: Option<Instant>,
    rounds_seen: u64,
    /// The run [`Observer::start_run`] opened, and when.
    run: Option<(RunKind, Instant)>,
}

impl Observer {
    /// A disarmed observer (no log, no progress line).
    pub fn new() -> Self {
        Self::default()
    }

    /// The observer of one campaign, frontier or shard run, with its
    /// `RunStarted` recorded: `events` arms the durable event log, created
    /// fresh or, on `resume`, appended past a torn final line; `progress`
    /// arms the live stderr line. Close the run with
    /// [`Observer::finish_run`].
    pub fn start_run(
        kind: RunKind,
        total: u64,
        events: Option<&Path>,
        resume: bool,
        progress: bool,
    ) -> Result<Self, String> {
        let mut observer = Observer::new();
        if let Some(path) = events {
            let log = if resume { EventLog::append(path) } else { EventLog::create(path) }
                .map_err(|e| format!("event log {}: {e}", path.display()))?;
            observer = observer.with_log(log);
        }
        if progress {
            observer = observer.with_progress(Progress::new(kind, total));
        }
        observer.record(&ObsEvent::RunStarted { kind, total });
        observer.run = Some((kind, Instant::now()));
        Ok(observer)
    }

    /// Close the run [`Observer::start_run`] opened: record `RunFinished`
    /// with `done` work items, the rounds of the rows recorded and the
    /// wall time since the start, flush, and release the progress line.
    pub fn finish_run(&mut self, done: u64) -> Result<(), String> {
        let (kind, started) = self.run.expect("finish_run closes a run start_run opened");
        let wall_ms = started.elapsed().as_millis() as u64;
        self.finish(&ObsEvent::RunFinished { kind, done, wall_ms, rounds: self.rounds_seen })
    }

    /// Attach a durable event log; starts the boundary clock.
    pub fn with_log(mut self, log: EventLog) -> Self {
        self.log = Some(log);
        self.boundary = Some(Instant::now());
        self
    }

    /// Attach a live stderr progress line; starts the boundary clock.
    pub fn with_progress(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self.boundary = Some(Instant::now());
        self
    }

    /// Whether any surface is armed.
    pub fn is_armed(&self) -> bool {
        self.log.is_some() || self.progress.is_some()
    }

    /// Record one event on every armed surface.
    pub fn record(&mut self, event: &ObsEvent) {
        if let ObsEvent::Row { rounds, .. } = event {
            self.rounds_seen += rounds;
        }
        if let Some(log) = &mut self.log {
            log.record(event);
        }
        if let Some(progress) = &mut self.progress {
            progress.observe(event);
        }
    }

    /// Total simulated rounds over the `Row` events recorded so far — the
    /// `rounds` input for the caller's `RunFinished` event.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Microseconds elapsed since the previous boundary (or since arming),
    /// and restart the boundary clock. This is the **only** wall-clock
    /// sample the executors take per work item — the round loop never sees
    /// a clock. Returns 0 when fully disarmed, skipping the syscall.
    pub fn boundary_us(&mut self) -> u64 {
        if !self.is_armed() {
            return 0;
        }
        let now = Instant::now();
        let us = self.boundary.map_or(0, |t| now.duration_since(t).as_micros() as u64);
        self.boundary = Some(now);
        us
    }

    /// Flush the event log (fsync). A disarmed observer returns `Ok`.
    pub fn flush(&mut self) -> Result<(), String> {
        match &mut self.log {
            Some(log) => log.flush(),
            None => Ok(()),
        }
    }

    /// Record the run-finished event, flush, and release the progress
    /// line. Call once at the end of a run.
    pub fn finish(&mut self, event: &ObsEvent) -> Result<(), String> {
        self.record(event);
        if let Some(progress) = &mut self.progress {
            progress.finish();
        }
        self.flush()
    }
}

/// A [`ResultSink`] wrapper that reports each accepted row and each
/// commit block's durability barrier ([`ResultSink::committed`]) to an
/// [`Observer`] — the bytes pass through untouched (the wrapper never
/// inspects or alters what the inner sink writes). The observer is shared
/// through a [`Mutex`](std::sync::Mutex) so the caller (e.g. the shard
/// driver, between units) can record its own events against the same
/// stream; only the campaign's committer calls the sink, so the inner
/// mutex is effectively uncontended.
pub struct ObservedSink<'o, S: ResultSink> {
    inner: S,
    obs: &'o std::sync::Mutex<Observer>,
}

impl<'o, S: ResultSink> ObservedSink<'o, S> {
    /// Wrap `inner`, reporting to `obs`.
    pub fn new(inner: S, obs: &'o std::sync::Mutex<Observer>) -> Self {
        Self { inner, obs }
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ResultSink> ResultSink for ObservedSink<'_, S> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        {
            let mut obs = self.obs.lock().expect("observer poisoned");
            let wall_us = obs.boundary_us();
            let (rounds, clean) = match &run.outcome {
                Ok(report) => (report.metrics.rounds, report.clean()),
                Err(_) => (0, false),
            };
            obs.record(&ObsEvent::Row { index: index as u64, rounds, clean, wall_us });
        }
        self.inner.accept(index, run)
    }

    fn sync(&mut self) -> Result<(), String> {
        self.inner.sync()
    }

    fn committed(&mut self, barrier: Duration) {
        let wall_us = barrier.as_micros() as u64;
        self.obs.lock().expect("observer poisoned").record(&ObsEvent::Fsync { wall_us });
        self.inner.committed(barrier);
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()?;
        self.obs.lock().expect("observer poisoned").flush()
    }
}

/// Per-shard activity extracted from claim events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardActivity {
    /// Units claimed (own slice and stolen alike).
    pub claims: u64,
    /// Claims outside the shard's own slice.
    pub steals: u64,
}

/// Offline summary of one or more event logs: the engine behind
/// `emac obs report` and the probe-conservation acceptance test.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// Total events ingested.
    pub events: u64,
    /// Campaign rows observed.
    pub rows: u64,
    /// Rows that ran clean.
    pub clean_rows: u64,
    /// Frontier probes observed.
    pub probes: u64,
    /// Probes whose verdict was "diverging".
    pub diverging_probes: u64,
    /// Escalations observed.
    pub escalations: u64,
    /// Fsync barriers observed.
    pub fsyncs: u64,
    /// Runs finished.
    pub runs_finished: u64,
    /// Wall-clock milliseconds summed over finished runs.
    pub wall_ms: u64,
    /// Simulated rounds summed over finished runs.
    pub rounds: u64,
    /// Per-row wall-time histogram (µs).
    pub row_us: DelayStats,
    /// Per-probe wall-time histogram (µs).
    pub probe_us: DelayStats,
    /// Fsync latency histogram (µs).
    pub fsync_us: DelayStats,
    /// Per-shard activity, keyed by shard id, insertion-ordered.
    pub shards: Vec<(u64, ShardActivity)>,
}

impl ObsReport {
    /// Ingest one event log's text. Every line must parse — a torn tail
    /// should have been repaired at append time, so a malformed line is an
    /// error, not noise to skip.
    pub fn ingest(&mut self, text: &str) -> Result<(), String> {
        for (lineno, line) in text.lines().enumerate() {
            let event = ObsEvent::parse_line(line)
                .map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
            self.events += 1;
            match event {
                ObsEvent::Row { rounds: _, clean, wall_us, .. } => {
                    self.rows += 1;
                    self.clean_rows += u64::from(clean);
                    self.row_us.record(wall_us);
                }
                ObsEvent::Probe { diverging, wall_us, .. } => {
                    self.probes += 1;
                    self.diverging_probes += u64::from(diverging);
                    self.probe_us.record(wall_us);
                }
                ObsEvent::Escalation { .. } => self.escalations += 1,
                ObsEvent::Fsync { wall_us } => {
                    self.fsyncs += 1;
                    self.fsync_us.record(wall_us);
                }
                ObsEvent::RunStarted { .. } => {}
                ObsEvent::RunFinished { done: _, wall_ms, rounds, .. } => {
                    self.runs_finished += 1;
                    self.wall_ms += wall_ms;
                    self.rounds += rounds;
                }
                ObsEvent::Claim { shard, stolen, .. } => {
                    let entry = self.shard_entry(shard);
                    entry.claims += 1;
                    entry.steals += u64::from(stolen);
                }
            }
        }
        Ok(())
    }

    fn shard_entry(&mut self, shard: u64) -> &mut ShardActivity {
        if let Some(pos) = self.shards.iter().position(|(id, _)| *id == shard) {
            return &mut self.shards[pos].1;
        }
        self.shards.push((shard, ShardActivity::default()));
        &mut self.shards.last_mut().expect("just pushed").1
    }

    /// Rounds per second over the finished runs (0 when unknown).
    pub fn rounds_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            0.0
        } else {
            self.rounds as f64 / (self.wall_ms as f64 / 1000.0)
        }
    }

    /// The human summary `emac obs report` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} event(s)", self.events);
        let _ = writeln!(
            out,
            "runs: {} finished, {} ms wall, {} simulated round(s) ({:.0} rounds/sec)",
            self.runs_finished,
            self.wall_ms,
            self.rounds,
            self.rounds_per_sec()
        );
        if self.rows > 0 {
            let _ = writeln!(
                out,
                "rows: {} ({} clean) | wall/row p50 {} us, p99 {} us",
                self.rows,
                self.clean_rows,
                self.row_us.quantile(0.5),
                self.row_us.quantile(0.99)
            );
        }
        if self.probes > 0 {
            let _ = writeln!(
                out,
                "probes: {} ({} diverging), {} escalation(s) | wall/probe p50 {} us, p99 {} us",
                self.probes,
                self.diverging_probes,
                self.escalations,
                self.probe_us.quantile(0.5),
                self.probe_us.quantile(0.99)
            );
        }
        if self.fsyncs > 0 {
            let _ = writeln!(
                out,
                "fsyncs: {} | p50 {} us, p99 {} us",
                self.fsyncs,
                self.fsync_us.quantile(0.5),
                self.fsync_us.quantile(0.99)
            );
        }
        if !self.shards.is_empty() {
            let total_claims: u64 = self.shards.iter().map(|(_, a)| a.claims).sum();
            for (id, a) in &self.shards {
                let share = if total_claims == 0 {
                    0.0
                } else {
                    100.0 * a.claims as f64 / total_claims as f64
                };
                let _ = writeln!(
                    out,
                    "shard {id}: {} claim(s) ({share:.0}% of fleet), {} steal(s)",
                    a.claims, a.steals
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::RunStarted { kind: RunKind::Frontier, total: 4 },
            ObsEvent::Claim { shard: 1, unit: 0, stolen: false },
            ObsEvent::Claim { shard: 1, unit: 5, stolen: true },
            ObsEvent::Probe { point: 0, diverging: true, lanes: 3, wall_us: 120 },
            ObsEvent::Probe { point: 1, diverging: false, lanes: 5, wall_us: 80 },
            ObsEvent::Escalation { point: 1, lanes: 5 },
            ObsEvent::Row { index: 0, rounds: 4096, clean: true, wall_us: 900 },
            ObsEvent::Fsync { wall_us: 35 },
            ObsEvent::RunFinished { kind: RunKind::Frontier, done: 4, wall_ms: 12, rounds: 8192 },
        ]
    }

    #[test]
    fn events_round_trip_through_the_minimal_parser() {
        for event in sample_events() {
            let line = event.to_json().render();
            assert_eq!(ObsEvent::parse_line(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn wall_clock_fields_stay_in_wall_named_keys() {
        // The digest-safety invariant rides on output rows never carrying
        // wall-clock data; inside the event stream, wall time is always
        // under a key that starts with "wall_" so tests can assert its
        // absence from any digested bytes by substring.
        for event in sample_events() {
            let line = event.to_json().render();
            let has_wall = matches!(
                event,
                ObsEvent::Row { .. }
                    | ObsEvent::Probe { .. }
                    | ObsEvent::Fsync { .. }
                    | ObsEvent::RunFinished { .. }
            );
            assert_eq!(line.contains("\"wall_"), has_wall, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_noise() {
        let mut report = ObsReport::default();
        assert!(report.ingest("{\"ev\":\"fsync\",\"wall_us\":1}\n{torn").is_err());
        assert!(ObsReport::default().ingest("{\"ev\":\"mystery\"}").is_err());
        // logs written while frontier maps ran in waves are refused too
        assert!(ObsReport::default().ingest("{\"ev\":\"wave\",\"wave\":1,\"probes\":2}").is_err());
        assert!(ObsReport::default().ingest("{\"wall_us\":3}").is_err());
    }

    #[test]
    fn report_counts_rates_and_shard_activity() {
        let text: String =
            sample_events().iter().map(|e| e.to_json().render() + "\n").collect::<String>();
        let mut report = ObsReport::default();
        report.ingest(&text).unwrap();
        assert_eq!(report.events, 9);
        assert_eq!(report.rows, 1);
        assert_eq!(report.clean_rows, 1);
        assert_eq!(report.probes, 2);
        assert_eq!(report.diverging_probes, 1);
        assert_eq!(report.escalations, 1);
        assert_eq!(report.fsyncs, 1);
        assert_eq!(report.runs_finished, 1);
        assert_eq!(report.rounds, 8192);
        assert_eq!(report.shards, vec![(1, ShardActivity { claims: 2, steals: 1 })]);
        assert!((report.rounds_per_sec() - 8192.0 / 0.012).abs() < 1.0);
        let rendered = report.render();
        assert!(rendered.contains("probes: 2 (1 diverging)"), "{rendered}");
        assert!(rendered.contains("shard 1: 2 claim(s) (100% of fleet), 1 steal(s)"), "{rendered}");
    }

    #[test]
    fn event_log_appends_durably_and_repairs_torn_tails() {
        let path =
            std::env::temp_dir().join(format!("emac-obs-unit-{}-events.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut log = EventLog::create(&path).unwrap();
            log.record(&ObsEvent::Fsync { wall_us: 1 });
            log.flush().unwrap();
        }
        // simulate a kill mid-append: torn trailing fragment
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"ev\":\"fsy").unwrap();
        }
        {
            let mut log = EventLog::append(&path).unwrap();
            log.record(&ObsEvent::Fsync { wall_us: 2 });
            log.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut report = ObsReport::default();
        report.ingest(&text).unwrap(); // every surviving line parses
        assert_eq!(report.fsyncs, 2);
        // append on a missing path creates the file
        let _ = std::fs::remove_file(&path);
        let mut log = EventLog::append(&path).unwrap();
        log.record(&ObsEvent::Fsync { wall_us: 3 });
        log.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_boundary_clock_and_noop_cost() {
        let mut disarmed = Observer::new();
        assert!(!disarmed.is_armed());
        assert_eq!(disarmed.boundary_us(), 0); // no syscall when disarmed
        disarmed.record(&ObsEvent::Fsync { wall_us: 1 });
        disarmed.flush().unwrap();

        let path = std::env::temp_dir()
            .join(format!("emac-obs-unit-{}-observer.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut armed = Observer::new().with_log(EventLog::create(&path).unwrap());
        assert!(armed.is_armed());
        armed.boundary_us();
        let us = armed.boundary_us(); // a later sample measures a real span
        armed.record(&ObsEvent::Row { index: 0, rounds: 1, clean: true, wall_us: us });
        armed
            .finish(&ObsEvent::RunFinished {
                kind: RunKind::Campaign,
                done: 1,
                wall_ms: 0,
                rounds: 1,
            })
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_first_boundary_after_arming_measures_the_span_since_arming() {
        let pause = Duration::from_millis(3);
        let path = std::env::temp_dir()
            .join(format!("emac-obs-unit-{}-first-boundary.jsonl", std::process::id()));
        let armings: [fn(Observer, &std::path::Path) -> Observer; 2] = [
            |o, path| o.with_log(EventLog::create(path).unwrap()),
            |o, _| o.with_progress(Progress::new(RunKind::Campaign, 1)),
        ];
        for arm in armings {
            let mut observer = arm(Observer::new(), &path);
            std::thread::sleep(pause);
            let us = observer.boundary_us();
            assert!(us >= pause.as_micros() as u64, "first boundary read {us} us");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_line_shape() {
        let mut p = Progress::new(RunKind::Frontier, 8);
        p.observe(&ObsEvent::Probe { point: 0, diverging: false, lanes: 1, wall_us: 5 });
        p.observe(&ObsEvent::Escalation { point: 0, lanes: 5 });
        p.observe(&ObsEvent::Claim { shard: 0, unit: 9, stolen: true });
        let line = p.line();
        assert!(line.starts_with("frontier: 0/8 done"), "{line}");
        assert!(line.contains("1 escalation(s) | 1 steal(s)"), "{line}");
    }
}
